package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/server"
)

// cluster is an in-process gateway over three replicas, each on its own
// loopback listener.
type cluster struct {
	url     string // the gateway's base URL
	servers []*http.Server
	wg      sync.WaitGroup
	// upstream is the transport of the gateway client the benchmark
	// supplies in traced runs; nil means the gateway's default client.
	upstream *http.Transport
}

// startCluster wires replicas and gateway. Every setting keeps its
// default except the per-replica CacheCap. With a tracer, the benchmark's
// span wrappers sit around the handlers and in the gateway's client;
// wrap, if set, wraps each replica handler (tests use it to corrupt an
// answer).
func startCluster(tr *tracer, wrap func(int, http.Handler) http.Handler) (*cluster, error) {
	c := &cluster{}
	urls := make([]string, replicas)
	for i := range urls {
		var h http.Handler = server.New(server.Config{CacheCap: cacheCap})
		if wrap != nil {
			h = wrap(i, h)
		}
		if tr != nil {
			h = tr.replica(i, h)
		}
		u, err := c.serve(h)
		if err != nil {
			c.close()
			return nil, err
		}
		urls[i] = u
	}
	cfg := gateway.Config{Replicas: urls}
	if tr != nil {
		c.upstream = http.DefaultTransport.(*http.Transport).Clone()
		cfg.Client = &http.Client{Timeout: gateway.DefaultClientTimeout, Transport: tr.transport(c.upstream)}
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		c.close()
		return nil, err
	}
	var h http.Handler = gw
	if tr != nil {
		h = tr.gateway(h)
	}
	if c.url, err = c.serve(h); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	srv := &http.Server{Handler: h}
	c.servers = append(c.servers, srv)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		srv.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts the gateway and replicas down and waits for their serve
// loops to return.
func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(c.servers) - 1; i >= 0; i-- {
		c.servers[i].Shutdown(ctx) // on timeout the listeners are closed anyway
	}
	c.wg.Wait()
	if c.upstream != nil {
		c.upstream.CloseIdleConnections()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// stats fetches the gateway's /stats document.
func (c *cluster) stats(client *http.Client) (map[string]any, error) {
	resp, err := client.Get(c.url + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /stats: %w", err)
	}
	return doc, nil
}

// record is one request as the client saw it.
type record struct {
	req    int           // index into workload.reqs
	lat    time.Duration // send to last response byte
	done   time.Duration // last response byte, since the phase started
	status int
	body   []byte
	err    error
	failed int // operations the checker counted as failed
}

// clientLoop is the closed loop of clients: each of its clients sends its next
// request only once the previous one has been answered.
type clientLoop struct {
	w       *workload
	url     string
	http    *http.Client
	clients int
	tr      *tracer
	pos     atomic.Int64 // next measured request; phases continue the sequence
}

// run drives requests through the closed loop. With n >= 0 it sends
// reqs[0:n] once (the warmup); otherwise it replays the measured sequence
// until the deadline passes. It returns the records and the wall time
// from the first send to the last answer.
func (d *clientLoop) run(n int, deadline time.Time, traced bool) ([]record, time.Duration) {
	var warm atomic.Int64
	next := &warm
	if n < 0 {
		next = &d.pos
	}
	out := make([][]record, d.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for cl := 0; cl < d.clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				idx := k
				if n >= 0 {
					if k >= n {
						return
					}
				} else {
					if !time.Now().Before(deadline) {
						return
					}
					idx = d.w.at(k)
				}
				rec := d.send(idx, traced)
				rec.done = time.Since(start)
				out[cl] = append(out[cl], rec)
			}
		}(cl)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []record
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all, wall
}

// send posts one request and reads the whole answer.
func (d *clientLoop) send(idx int, traced bool) record {
	rec := record{req: idx}
	req, err := http.NewRequest(http.MethodPost, d.url+d.w.path, bytes.NewReader(d.w.reqs[idx].body))
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	var sp span
	if traced {
		sp = span{layer: layerClient, req: d.tr.newID(), start: d.tr.now()}
		req.Header.Set(traceHeader, fmt.Sprint(sp.req))
	}
	t0 := time.Now()
	resp, err := d.http.Do(req)
	if err == nil {
		rec.status = resp.StatusCode
		rec.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rec.lat = time.Since(t0)
	if traced {
		sp.end = d.tr.now()
		d.tr.add(sp)
	}
	rec.err = err
	return rec
}
