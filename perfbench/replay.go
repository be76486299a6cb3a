package main

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"time"

	"repro"
	"repro/internal/jobspec"
)

// Replays call each lower layer's public functions, single-threaded and
// off the clock, on the exact inputs of the traced phase. Each sample is
// capped so a replay costs at most about a second.
const (
	replayBodies  = 256 // request bodies for the jobspec replays
	replaySolves  = 512 // distinct jobs per method class
	replayHeur    = 24  // annealer solves cost ~12 ms each
	replaySweeps  = 256
	replayMinWall = 100 * time.Millisecond // repeat cheap samples to at least this
	replayMaxPass = 64
)

// cost is the mean time and heap allocations of one call.
type cost struct {
	perCall time.Duration
	allocs  float64
}

// measure runs f over n items, repeating the pass until replayMinWall has
// elapsed, and returns the mean cost per item.
func measure(n int, f func(i int)) cost {
	if n == 0 {
		return cost{}
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	calls := 0
	for pass := 0; pass < replayMaxPass && (pass == 0 || time.Since(start) < replayMinWall); pass++ {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms)
	return cost{perCall: wall / time.Duration(calls), allocs: float64(ms.Mallocs-mallocs) / float64(calls)}
}

// distinct lists the inputs the records touch, in first-seen order.
func distinct(w *workload, recs []record) []int {
	seen := make(map[int]bool)
	var out []int
	for _, r := range recs {
		for _, i := range w.reqs[r.req].inputs {
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	return out
}

// loadAll regenerates the given inputs ahead of a timed replay.
func loadAll(w *workload, idx []int) ([]repro.Instance, []repro.Request) {
	insts := make([]repro.Instance, len(idx))
	reqs := make([]repro.Request, len(idx))
	for k, i := range idx {
		insts[k], reqs[k] = w.load(i)
	}
	return insts, reqs
}

// replayMetrics returns the replay-based per-layer metrics of a traced
// phase. exp must hold the library's answer for every input it touched.
func replayMetrics(w *workload, recs []record, exp []*expectation) metrics {
	m := metrics{}
	inputs := distinct(w, recs)
	if w.sweep() {
		m.set("jobspec.decode_us_per_job", 0, "us")
		m.set("jobspec.encode_us_per_job", 0, "us")
		for _, c := range []string{"core.poly_us_per_solve", "exact.us_per_solve"} {
			m.set(c, 0, "us")
		}
		m.set("heur.ms_per_solve", 0, "ms")
		m.set("exact.allocs_per_solve", 0, "count")
		m.set("heur.allocs_per_solve", 0, "count")

		sample := inputs[:min(len(inputs), replaySweeps)]
		insts, reqs := loadAll(w, sample)
		compile := measure(len(sample), func(i int) {
			repro.Compile(&insts[i], reqs[i].Rule, reqs[i].Model)
		})
		m.set("plan.compile_us", us(compile.perCall), "us")
		sweep := measure(len(sample), func(i int) {
			repro.ParetoPeriodEnergy(&insts[i], reqs[i].Rule, reqs[i].Model)
		})
		m.set("pareto.sweep_ms", ms(sweep.perCall), "ms")
		points := 0
		for _, i := range sample {
			points += len(exp[i].front)
		}
		m.set("pareto.points", ratio(float64(points), float64(len(sample))), "count")
		return m
	}

	m.set("plan.compile_us", 0, "us")
	m.set("pareto.sweep_ms", 0, "ms")
	m.set("pareto.points", 0, "count")

	// jobspec: decode the request bodies as a replica does, and encode the
	// library's answers to them as a replica's response.
	var bodies []int
	seen := make(map[int]bool)
	for _, r := range recs {
		if !seen[r.req] && len(bodies) < replayBodies {
			seen[r.req] = true
			bodies = append(bodies, r.req)
		}
	}
	jobs := 0
	results := make([][]repro.BatchResult, len(bodies))
	for b, k := range bodies {
		idx := w.reqs[k].inputs
		jobs += len(idx)
		results[b] = make([]repro.BatchResult, len(idx))
		for j, i := range idx {
			results[b][j] = repro.BatchResult{Result: exp[i].res, Err: exp[i].err}
		}
	}
	perJob := float64(len(bodies)) / float64(max(jobs, 1))
	decode := measure(len(bodies), func(b int) {
		doc, err := jobspec.DecodeFile(bytes.NewReader(w.reqs[bodies[b]].body))
		if err == nil {
			doc.BatchJobs()
		}
	})
	m.set("jobspec.decode_us_per_job", us(decode.perCall)*perJob, "us")
	encode := measure(len(bodies), func(b int) {
		out, err := jobspec.EncodeOutput(results[b], repro.BatchStats{})
		if err == nil {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			enc.Encode(out)
		}
	})
	m.set("jobspec.encode_us_per_job", us(encode.perCall)*perJob, "us")

	// core: one solve of each distinct job, grouped by the method the
	// dispatcher chose for it.
	byClass := map[string][]int{}
	for _, i := range inputs {
		if exp[i].err == nil {
			c := methodClass(exp[i].res.Method)
			byClass[c] = append(byClass[c], i)
		}
	}
	solve := func(class string, limit int) cost {
		insts, reqs := loadAll(w, byClass[class][:min(len(byClass[class]), limit)])
		return measure(len(insts), func(i int) {
			repro.Solve(&insts[i], reqs[i])
		})
	}
	poly := solve("poly", replaySolves)
	m.set("core.poly_us_per_solve", us(poly.perCall), "us")
	ex := solve("exact", replaySolves)
	m.set("exact.us_per_solve", us(ex.perCall), "us")
	m.set("exact.allocs_per_solve", ex.allocs, "count")
	heur := solve("heur", replayHeur)
	m.set("heur.ms_per_solve", ms(heur.perCall), "ms")
	m.set("heur.allocs_per_solve", heur.allocs, "count")
	return m
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
