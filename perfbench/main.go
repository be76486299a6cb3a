// Command perfbench is the repository's benchmark. It starts an in-process
// cluster — the gateway over three replicas on loopback HTTP — drives one
// workload through it from a closed loop of clients, checks every answer
// against the library, and prints the end-to-end metrics (or, traced, the
// per-layer ones) with the result as a JSON object on the last line.
//
//	perfbench --workload zipf-hot --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and the metric dictionary.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
	"unsafe"

	"repro"
)

// setupRuns is how many times a run sets the cluster up; setup_s is the
// median and the last cluster is the one measured.
const setupRuns = 9

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // directory for the traced run's span dump, "" for none
	clients  int
	// wrapReplica, if set, wraps every replica handler (tests only).
	wrapReplica func(int, http.Handler) http.Handler
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of the output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out := bufio.NewWriter(os.Stdout)
	res, err := benchmark(o, out)
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := options{clients: min(2, runtime.NumCPU())}
	fs.StringVar(&o.workload, "workload", "zipf-hot", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 measures per-layer metrics in a traced run")
	fs.StringVar(&o.spans, "spans", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	o.trace = *trace == 1
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	return o, nil
}

// hostInfo records where and how the run happened.
func hostInfo(o options) map[string]any {
	return map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"clients": o.clients, "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu": cpuModel(), "go": runtime.Version(), "godebug": os.Getenv("GODEBUG"),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// benchmark runs one workload: generate its inputs, set the cluster up
// setupRuns times (cluster start plus warmup), measure, then check the
// answers off the clock.
func benchmark(o options, log io.Writer) (result, error) {
	host := hostInfo(o)
	hostLine, _ := json.Marshal(map[string]any{"host": host})
	fmt.Fprintf(log, "%s\n", hostLine)

	w, err := buildWorkload(o.workload, o.seed, o.seconds)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "workload %s seed %d: %d distinct inputs, %d requests (%d warmup), %d clients\n",
		w.name, o.seed, len(w.inputs), len(w.reqs), w.warmup, o.clients)
	if w.note != "" {
		fmt.Fprintf(log, "workload %s seed %d: %s\n", w.name, o.seed, w.note)
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	client := &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: o.clients}}
	defer client.CloseIdleConnections()

	baseHeap := liveHeap()
	var (
		c      *cluster
		d      *clientLoop
		warm   []record
		setups []float64
	)
	for s := 0; s < setupRuns; s++ {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		if c, err = startCluster(tr, o.wrapReplica); err != nil {
			return result{}, err
		}
		d = &clientLoop{w: w, url: c.url, http: client, clients: o.clients, tr: tr}
		warm, _ = d.run(w.warmup, time.Time{}, false)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.close()

	chk := newChecker(w)
	res := result{Metrics: metrics{}}
	var checked verdict
	if !o.trace {
		st0, err := c.stats(d.http)
		if err != nil {
			return result{}, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, wall := d.run(-1, time.Now().Add(seconds(o.seconds)), false)
		runtime.ReadMemStats(&after)
		st1, err := c.stats(d.http)
		if err != nil {
			return result{}, err
		}
		hits, _ := delta(st0, st1, "merged", "cacheHits")
		misses, _ := delta(st0, st1, "merged", "cacheMisses")
		fmt.Fprintf(log, "cache: %.0f hits, %.0f misses in the measured phase\n", hits, misses)
		heap := liveHeap() - baseHeap - retained(recs) - retained(warm)

		checked = chk.check(recs)
		win := windows(w, recs, seconds(o.seconds))
		res.Metrics.set("ops_per_s", win.opsPerSec, "1/s")
		res.Metrics.set("latency_p50_ms", win.p50, "ms")
		res.Metrics.set("latency_p90_ms", win.p90, "ms")
		done := float64(checked.ops - checked.failed)
		res.Metrics.set("ok_share", ratio(done, float64(checked.ops)), "ratio")
		res.Metrics.set("setup_s", median(setups), "s")
		res.Metrics.set("live_heap_mb", float64(heap)/(1<<20), "MiB")
		res.Metrics.set("allocs_per_op", ratio(float64(after.Mallocs-before.Mallocs), done), "count")
		fmt.Fprintf(log, "measured %d requests in %.3f s\n", len(recs), wall.Seconds())
	} else {
		res.Metrics, checked, err = tracedRun(o, w, c, d, chk, host)
		if err != nil {
			return result{}, err
		}
	}

	warmCheck := chk.check(warm)
	fmt.Fprintf(log, "digest %s seed=%d warmup-answers=%s\n", w.name, o.seed, chk.digest(warm))
	res.Attempted, res.Failed = checked.ops, checked.failed
	res.Correct = checked.wrong == 0 && warmCheck.wrong == 0
	for _, v := range []verdict{warmCheck, checked} {
		if v.first != "" {
			fmt.Fprintf(log, "check: %d of %d operations failed, %d of them differ from the library; first: %s\n",
				v.failed, v.ops, v.wrong, v.first)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(log, "metric %-28s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	return res, nil
}

// tracedRun measures the per-layer metrics. The measured time alternates
// untraced and traced quarters on the same warm cluster, so that drift
// during the run cancels out of the tracing overhead (the throughput
// ratio of the two); the per-layer numbers come from the traced quarters.
func tracedRun(o options, w *workload, c *cluster, d *clientLoop, chk *checker, host map[string]any) (metrics, verdict, error) {
	quarter := seconds(o.seconds / 4)
	var (
		plain, traced         []record
		plainWall, tracedWall time.Duration
		before, after         = map[string]any{}, map[string]any{}
	)
	for q := 0; q < 4; q++ {
		on := q%2 == 1
		var st0 map[string]any
		if on {
			var err error
			if st0, err = c.stats(d.http); err != nil {
				return nil, verdict{}, err
			}
		}
		recs, wall := d.run(-1, time.Now().Add(quarter), on)
		if !on {
			plain, plainWall = append(plain, recs...), plainWall+wall
			continue
		}
		traced, tracedWall = append(traced, recs...), tracedWall+wall
		st1, err := c.stats(d.http)
		if err != nil {
			return nil, verdict{}, err
		}
		accumulate(before, st0)
		accumulate(after, st1)
	}
	pv, tv := chk.check(plain), chk.check(traced)
	v := pv
	v.add(tv)

	m := metrics{}
	b := d.tr.analyze()
	n := float64(b.requests)
	m.set("client.hop_ms", ms(b.clientHop)/n, "ms")
	m.set("gateway.self_ms", ms(b.gatewaySelf)/n, "ms")
	m.set("gateway.fanout", float64(b.calls)/n, "count")
	m.set("gateway.transport_ms", ms(b.transport)/float64(b.calls), "ms")
	m.set("server.self_ms", ms(b.serverSelf)/float64(b.calls), "ms")
	switch {
	case w.sweep():
		m.set("batch.engine_ms", 0, "ms")
	case b.walls > 0:
		m.set("batch.engine_ms", ms(b.engine)/float64(b.walls), "ms")
	}
	m.set("trace.addup_ratio", ratio(float64(b.path), float64(b.client)), "ratio")
	m.set("trace.overhead",
		ratio(float64(tv.ops)/tracedWall.Seconds(), float64(pv.ops)/plainWall.Seconds())-1, "ratio")

	if r, ok := delta(before, after, "retried"); ok {
		m.set("gateway.retries", r, "count")
	}
	hits, okH := delta(before, after, "merged", "cacheHits")
	misses, okM := delta(before, after, "merged", "cacheMisses")
	if okH && okM {
		m.set("batch.hit_rate", ratio(hits, hits+misses), "ratio")
	}
	jobs := 0.0
	if !w.sweep() {
		jobs = float64(tv.ops)
	}
	if ev, ok := delta(before, after, "merged", "evictions"); ok {
		m.set("batch.evictions_per_job", ratio(ev, jobs), "count")
	}
	for name, val := range batchCounters(w, traced) {
		m.set(name, val, "ratio")
	}
	for name, val := range replayMetrics(w, traced, chk.exp) {
		m[name] = val
	}
	if o.spans != "" {
		path := filepath.Join(o.spans, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
		if err := d.tr.write(path, host); err != nil {
			return nil, verdict{}, fmt.Errorf("writing spans: %w", err)
		}
	}
	return m, v, nil
}

// batchCounters reads what the batch responses themselves report: the
// share of jobs by the method that answered them, and the plan tier's
// reuse rate when the stats carry it.
func batchCounters(w *workload, recs []record) map[string]float64 {
	out := map[string]float64{"core.share_poly": 0, "core.share_exact": 0, "core.share_heur": 0}
	if w.sweep() {
		out["batch.plan_reuse_rate"] = 0
		return out
	}
	var jobs, reuses, compiles float64
	planFields := true
	for _, r := range recs {
		var doc struct {
			Results []fields `json:"results"`
			Stats   fields   `json:"stats"`
		}
		if r.status != http.StatusOK || json.Unmarshal(r.body, &doc) != nil {
			continue
		}
		for _, slot := range doc.Results {
			jobs++
			if m := slot.str("method"); m != "" {
				out["core.share_"+methodClass(repro.Method(m))]++
			}
		}
		re, ok1 := doc.Stats.float("planReuses")
		co, ok2 := doc.Stats.float("planCompiles")
		planFields = planFields && ok1 && ok2
		reuses += re
		compiles += co
	}
	for _, c := range []string{"poly", "exact", "heur"} {
		out["core.share_"+c] = ratio(out["core.share_"+c], jobs)
	}
	if planFields {
		out["batch.plan_reuse_rate"] = ratio(reuses, reuses+compiles)
	}
	return out
}

// accumulate adds the numeric fields of a /stats document into sum,
// recursively, so that deltas over several phases are sums of deltas.
func accumulate(sum, doc map[string]any) {
	for k, v := range doc {
		switch x := v.(type) {
		case float64:
			prev, _ := sum[k].(float64)
			sum[k] = prev + x
		case map[string]any:
			sub, ok := sum[k].(map[string]any)
			if !ok {
				sub = map[string]any{}
				sum[k] = sub
			}
			accumulate(sub, x)
		}
	}
}

// delta is after-before of a numeric field of the /stats documents.
func delta(before, after map[string]any, path ...string) (float64, bool) {
	a, ok1 := lookup(after, path)
	b, ok2 := lookup(before, path)
	return a - b, ok1 && ok2
}

func lookup(doc map[string]any, path []string) (float64, bool) {
	var cur any = doc
	for _, p := range path {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		cur = obj[p]
	}
	x, ok := cur.(float64)
	return x, ok
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// liveHeap is the heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// retained is the heap the benchmark itself holds for recs (the records
// and the raw responses kept for the off-clock check), so live_heap_mb
// can leave it out.
func retained(recs []record) int64 {
	n := int64(cap(recs)) * int64(unsafe.Sizeof(record{}))
	for i := range recs {
		n += int64(cap(recs[i].body))
	}
	return n
}

// measureWindows is how many equal windows the measured phase is cut
// into; each time metric is the median over the windows, so a burst of
// interference from outside the benchmark moves it only when it covers
// most of the run.
const measureWindows = 20

type windowed struct{ opsPerSec, p50, p90 float64 }

// windows computes, for each window, the operations answered correctly per
// second and the latency percentiles of the requests that completed in
// it, and returns the medians. Requests completing after the measured
// time (at most one per client) are left out.
func windows(w *workload, recs []record, total time.Duration) windowed {
	width := total / measureWindows
	ops := make([]float64, measureWindows)
	lats := make([][]record, measureWindows)
	for i := range recs {
		k := int(recs[i].done / width)
		if k >= measureWindows {
			continue
		}
		ops[k] += float64(len(w.reqs[recs[i].req].inputs) - recs[i].failed)
		lats[k] = append(lats[k], recs[i])
	}
	var rate, p50, p90 []float64
	for k := range ops {
		rate = append(rate, ops[k]/width.Seconds())
		if lat := latencies(lats[k]); len(lat) > 0 {
			p50 = append(p50, percentile(lat, 0.50))
			p90 = append(p90, percentile(lat, 0.90))
		}
	}
	return windowed{opsPerSec: median(rate), p50: median(p50), p90: median(p90)}
}

func latencies(recs []record) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.lat)
	}
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(k, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
