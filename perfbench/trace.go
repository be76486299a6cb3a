package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// traceHeader carries a span's request id ("<id>") from the client to the
// gateway, and "<id>.<call>" from the gateway's upstream calls to the
// replicas. The program forwards neither: the benchmark's own wrappers
// set and read it.
const traceHeader = "X-Perfbench-Span"

type layer uint8

const (
	layerClient   layer = iota // the benchmark's request, send to last byte
	layerGateway               // the gateway handler
	layerUpstream              // one gateway→replica call, send to body closed
	layerReplica               // the replica handler
)

var layerNames = [...]string{"client", "gateway", "upstream", "replica"}

// span is one timed interval at a layer boundary. Spans of one request
// share req; an upstream call and the replica handler it reached share
// call.
type span struct {
	layer      layer
	req, call  uint64
	replica    int
	start, end time.Duration // since the tracer's epoch
	body       []byte        // replica spans: the response, read after the run
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	calls atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type spanKey struct{}

// gateway wraps the gateway handler: a request carrying a span id runs
// with that id in its context, where the upstream transport finds it.
func (t *tracer) gateway(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := span{layer: layerGateway, req: id, start: t.now()}
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		sp.end = t.now()
		t.add(sp)
	})
}

// transport wraps the gateway client's transport: an upstream call made
// under a traced request gets its own call id, forwarded in the header,
// and a span that ends when the gateway closes the response body.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripper(func(req *http.Request) (*http.Response, error) {
		id, ok := req.Context().Value(spanKey{}).(uint64)
		if !ok {
			return base.RoundTrip(req)
		}
		sp := span{layer: layerUpstream, req: id, call: t.calls.Add(1)}
		req = req.Clone(req.Context())
		req.Header.Set(traceHeader, fmt.Sprintf("%d.%d", id, sp.call))
		sp.start = t.now()
		resp, err := base.RoundTrip(req)
		if err != nil {
			sp.end = t.now()
			t.add(sp)
			return nil, err
		}
		resp.Body = &spanBody{ReadCloser: resp.Body, t: t, sp: sp}
		return resp, nil
	})
}

type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type spanBody struct {
	io.ReadCloser
	t    *tracer
	sp   span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.end = b.t.now()
		b.t.add(b.sp)
	})
	return err
}

// replica wraps replica i's handler: it times the handler and keeps a copy
// of the response, whose stats.wallMs is the engine's own time.
func (t *tracer) replica(i int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ids, call, ok := strings.Cut(r.Header.Get(traceHeader), ".")
		id, err1 := strconv.ParseUint(ids, 10, 64)
		c, err2 := strconv.ParseUint(call, 10, 64)
		if !ok || err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		tw := &teeWriter{ResponseWriter: w}
		sp := span{layer: layerReplica, req: id, call: c, replica: i, start: t.now()}
		h.ServeHTTP(tw, r)
		sp.end = t.now()
		sp.body = tw.buf
		t.add(sp)
	})
}

type teeWriter struct {
	http.ResponseWriter
	buf []byte
}

func (tw *teeWriter) Write(p []byte) (int, error) {
	tw.buf = append(tw.buf, p...)
	return tw.ResponseWriter.Write(p)
}

// engineWall reads the engine's reported wall time from a replica
// response; ok is false when the response carries none.
func engineWall(body []byte) (time.Duration, bool) {
	var doc struct {
		Stats fields `json:"stats"`
	}
	if json.Unmarshal(body, &doc) != nil {
		return 0, false
	}
	ms, ok := doc.Stats.float("wallMs")
	return time.Duration(ms * float64(time.Millisecond)), ok
}

// covered is the length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var cur [2]time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case x[0] > cur[1]:
			total += cur[1] - cur[0]
			cur = x
		case x[1] > cur[1]:
			cur[1] = x[1]
		}
	}
	if len(iv) > 0 {
		total += cur[1] - cur[0]
	}
	return total
}

// breakdown is the per-layer split of the traced requests.
type breakdown struct {
	requests, calls, walls int
	// Per request, along the blocking path.
	clientHop, gatewaySelf time.Duration
	path, client           time.Duration
	// Per upstream call.
	transport, serverSelf, engine time.Duration
}

// analyze computes self times: a span's duration minus the part of it its
// children cover. The children of the client span are the gateway span;
// of the gateway span, its upstream calls; of an upstream call, the
// replica handler; of the replica handler, the engine's reported wall
// time. The blocking path runs through the upstream call that ends last.
func (t *tracer) analyze() breakdown {
	type reqSpans struct {
		client, gateway *span
		ups             []*span
	}
	byReq := make(map[uint64]*reqSpans)
	reps := make(map[uint64]*span)
	for i := range t.spans {
		s := &t.spans[i]
		if s.layer == layerReplica {
			reps[s.call] = s
			continue
		}
		rs := byReq[s.req]
		if rs == nil {
			rs = &reqSpans{}
			byReq[s.req] = rs
		}
		switch s.layer {
		case layerClient:
			rs.client = s
		case layerGateway:
			rs.gateway = s
		case layerUpstream:
			rs.ups = append(rs.ups, s)
		}
	}

	var b breakdown
	// split divides one upstream call into transport, replica self time
	// and the engine's reported time (wall is false when it reports none).
	split := func(u *span) (tr, self, eng time.Duration, wall bool) {
		r := reps[u.call]
		if r == nil {
			return u.dur(), 0, 0, false
		}
		eng, wall = engineWall(r.body)
		return u.dur() - r.dur(), r.dur() - eng, eng, wall
	}
	for _, rs := range byReq {
		if rs.client == nil || rs.gateway == nil {
			continue
		}
		b.requests++
		c, g := rs.client.dur(), rs.gateway.dur()
		b.client += c
		b.clientHop += c - g
		iv := make([][2]time.Duration, len(rs.ups))
		var crit *span
		for i, u := range rs.ups {
			iv[i] = [2]time.Duration{u.start, u.end}
			if crit == nil || u.end > crit.end {
				crit = u
			}
			if reps[u.call] == nil {
				continue
			}
			tr, self, eng, wall := split(u)
			b.calls++
			b.transport += tr
			b.serverSelf += self
			if wall {
				b.walls++
				b.engine += eng
			}
		}
		gwSelf := g - covered(iv)
		b.gatewaySelf += gwSelf
		path := (c - g) + gwSelf
		if crit != nil {
			tr, self, eng, _ := split(crit)
			path += tr + self + eng
		}
		b.path += path
	}
	return b
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string, host map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	enc.Encode(map[string]any{"host": host})
	for i := range t.spans {
		s := &t.spans[i]
		doc := map[string]any{
			"layer": layerNames[s.layer], "req": s.req,
			"startUs": s.start.Microseconds(), "endUs": s.end.Microseconds(),
		}
		if s.layer >= layerUpstream {
			doc["call"] = s.call
		}
		if s.layer == layerReplica {
			doc["replica"] = s.replica
			if eng, ok := engineWall(s.body); ok {
				doc["engineUs"] = eng.Microseconds()
			}
		}
		enc.Encode(doc)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
