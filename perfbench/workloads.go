package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro"
	"repro/internal/algo/exact"
	"repro/internal/jobspec"
)

// Workload shapes. The cluster is three replicas of CacheCap entries each,
// so the whole cluster caches 3*cacheCap results.
const (
	replicas = 3
	cacheCap = 64

	// zipf-hot: a corpus more than ten times the cluster's cache
	// capacity, ranked so that the zipf head is cheap scenarios and the
	// tail the ones the dispatcher hands to the annealer under exactLimit.
	// With s = 1.3 the tail draws about 5% of the jobs, so about a third
	// of the batches carry an annealer solve, and it is wide enough that
	// most tail draws are first-time misses.
	zipfHot    = 512  // cheap head
	zipfCold   = 2048 // expensive tail
	zipfJobs   = 8    // jobs per batch
	zipfS      = 1.3
	exactLimit = 500 // as in pipebench -exp load

	// pareto-sweep: frontier sweeps over instances whose exhaustive
	// mapping space holds sweepMinMappings to sweepMaxMappings mappings.
	sweepMinMappings = 300
	sweepMaxMappings = 10_000

	// unique-scan: jobs per batch. Its solves take microseconds, so in a
	// batch of 8 a request is mostly the fixed cost of its HTTP hops, and
	// on a shared 2-core host that cost varied between runs far more than
	// the work did (ops_per_s spread 0.12 at 8 jobs, 0.03 at 32). At 32
	// jobs the per-job serving path (decode, solve, encode, cache insert)
	// outweighs the hops.
	uniqueJobs = 32

	// warmupRequests is the warmup of zipf-hot and pareto-sweep;
	// unique-scan sends as many jobs in fewer, larger batches.
	warmupRequests = 128
)

// Sequence sizing: after the warmup, a sequence holds rate * seconds
// requests, with seconds clamped to [minSequenceSeconds,
// sequenceSeconds]; rate is about what a 2-core host sustains. Longer or
// faster runs replay the sequence from its start (see workload.at). By
// then the caches, 192 entries in all, have forgotten nearly all of it:
// the replicas' default cache tier keeps a few costly entries, so a
// replayed unique-scan sequence hits about one job in 10 000. The cap
// bounds the memory the pre-encoded bodies take and the number of
// distinct answers the check must compute; the floor keeps short runs
// from replaying at all.
const (
	minSequenceSeconds = 2
	sequenceSeconds    = 10
	zipfRate           = 500  // batches per second
	uniqueRate         = 250  // batches per second
	sweepRate          = 1000 // sweeps per second
)

// input is one distinct unit of work: a batch job, or a frontier sweep
// (instance, request rule and model, target). It names a scenario of the
// seeded corpus rather than holding it, so that the tens of thousands of
// inputs of a run cost memory only as request bodies.
type input struct {
	scenario   int
	exactLimit int64 // replaces the request's exact limit when positive
	target     float64
}

// request is one pre-encoded HTTP request of a workload's sequence.
type request struct {
	body   []byte
	inputs []int // indices into workload.inputs, in slot order
}

// workload is a fully generated request sequence: reqs[:warmup] warm the
// cluster, the measured phase replays reqs[warmup:] from the start.
type workload struct {
	name   string
	seed   int64
	path   string // endpoint the requests are POSTed to
	inputs []input
	reqs   []request
	warmup int
	// exp, when set, holds the library's answer for every input, worked
	// out while the inputs were chosen; the checker starts from it.
	exp []*expectation
	// note says what the build left out, for the log.
	note string
}

// load regenerates input i's instance and request.
func (w *workload) load(i int) (repro.Instance, repro.Request) {
	in := &w.inputs[i]
	inst, req := repro.GenerateInstance(w.seed, in.scenario)
	if in.exactLimit > 0 {
		req.ExactLimit = in.exactLimit
	}
	return inst, req
}

// at returns the k-th request of the measured phase.
func (w *workload) at(k int) int {
	return w.warmup + k%(len(w.reqs)-w.warmup)
}

// sweep reports whether the workload's operations are frontier sweeps.
func (w *workload) sweep() bool { return w.path == "/v1/pareto" }

var workloadNames = []string{"zipf-hot", "unique-scan", "pareto-sweep"}

// buildWorkload generates a workload's inputs from seed. Everything the
// program later receives is encoded here, before any timing starts.
func buildWorkload(name string, seed int64, seconds float64) (*workload, error) {
	seconds = math.Min(math.Max(seconds, minSequenceSeconds), sequenceSeconds)
	size := func(rate float64) int { return int(math.Ceil(seconds * rate)) }
	switch name {
	case "zipf-hot":
		return buildZipfHot(seed, size(zipfRate))
	case "unique-scan":
		return buildUniqueScan(seed, size(uniqueRate))
	case "pareto-sweep":
		return buildParetoSweep(seed, size(sweepRate))
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// parallel runs f(0..n-1) on GOMAXPROCS goroutines.
func parallel(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < n; i += workers {
				f(i)
			}
		}(wk)
	}
	wg.Wait()
}

// encodeInputs renders every input's instance and wire request once.
func encodeInputs(w *workload) ([]jobspec.Job, error) {
	jobs := make([]jobspec.Job, len(w.inputs))
	errs := make([]error, len(w.inputs))
	parallel(len(w.inputs), func(i int) {
		inst, req := w.load(i)
		var buf bytes.Buffer
		errs[i] = repro.EncodeInstance(&buf, &inst)
		jobs[i] = jobspec.Job{Instance: buf.Bytes(), Request: jobspec.RequestOf(req)}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("encoding input %d: %w", i, err)
		}
	}
	return jobs, nil
}

// batchRequests encodes nreq /v1/batch job files of size jobs each; job j
// of request b carries input pick(b, j).
func batchRequests(w *workload, nreq, size int, pick func(b, j int) int) error {
	jobs, err := encodeInputs(w)
	if err != nil {
		return err
	}
	w.reqs = make([]request, nreq)
	for b := range w.reqs {
		idx := make([]int, size)
		file := jobspec.File{Jobs: make([]jobspec.Job, size)}
		for j := range idx {
			idx[j] = pick(b, j)
			file.Jobs[j] = jobs[idx[j]]
		}
		body, err := json.Marshal(file)
		if err != nil {
			return err
		}
		w.reqs[b] = request{body: body, inputs: idx}
	}
	return nil
}

// buildZipfHot ranks corpus scenarios by how the dispatcher answers them
// under exactLimit: the head is zipfHot scenarios answered by a
// polynomial theorem or the exact search (microseconds), the tail
// zipfCold scenarios answered by the annealer (milliseconds). Batches draw
// zipf(s) over the ranks.
func buildZipfHot(seed int64, batches int) (*workload, error) {
	w := &workload{name: "zipf-hot", seed: seed, path: "/v1/batch", warmup: warmupRequests}
	var hot, cold []int
	const chunk = 256
	for next := 0; len(hot) < zipfHot || len(cold) < zipfCold; next += chunk {
		class := make([]string, chunk)
		parallel(chunk, func(i int) {
			class[i] = dispatchClass(seed, next+i)
		})
		for i, c := range class {
			switch {
			case c == "heur" && len(cold) < zipfCold:
				cold = append(cold, next+i)
			case c != "" && c != "heur" && len(hot) < zipfHot:
				hot = append(hot, next+i)
			}
		}
	}
	for _, i := range append(hot, cold...) {
		w.inputs = append(w.inputs, input{scenario: i, exactLimit: exactLimit})
	}
	draw := zipfSampler(len(w.inputs), zipfS, rand.New(rand.NewSource(seed)))
	err := batchRequests(w, warmupRequests+batches, zipfJobs, func(int, int) int { return draw() })
	return w, err
}

// dispatchClass is the method class the dispatcher picks for scenario i
// under exactLimit, or "" when the solve fails. It solves with a
// one-iteration annealer, which keeps the scan cheap: the method depends
// only on the dispatch, not on the annealer's budget.
func dispatchClass(seed int64, i int) string {
	inst, req := repro.GenerateInstance(seed, i)
	req.ExactLimit, req.HeurIters, req.HeurRestarts = exactLimit, 1, 1
	res, err := repro.Solve(&inst, req)
	if err != nil {
		return ""
	}
	return methodClass(res.Method)
}

// zipfSampler draws ranks in [0, n) with P(k) proportional to 1/(k+1)^s.
func zipfSampler(n int, s float64, rng *rand.Rand) func() int {
	cdf := make([]float64, n)
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -s)
		cdf[k] = total
	}
	return func() int {
		u := rng.Float64() * total
		return min(sort.SearchFloat64s(cdf, u), n-1)
	}
}

// buildUniqueScan lays consecutive corpus scenarios, at the default exact
// limit, into batches: no job repeats within the sequence. A scenario the
// library itself answers with a shed, timeout or internal code is left
// out, because the check would count its slot as failed whatever the
// service does. On this tree these are the proc-starved one-to-one
// scenarios (fewer processors than stages): the library returns
// onetoone.ErrWrongPlatform, which jobspec.ErrorCode classes internal.
// The log line names how many were left out.
func buildUniqueScan(seed int64, batches int) (*workload, error) {
	warmup := warmupRequests * zipfJobs / uniqueJobs
	nreq := warmup + batches
	w := &workload{name: "unique-scan", seed: seed, path: "/v1/batch", warmup: warmup}
	need := nreq * uniqueJobs
	failing := 0
	const chunk = 1024
	for next := 0; len(w.inputs) < need; next += chunk {
		exps := make([]expectation, chunk)
		parallel(chunk, func(i int) {
			inst, req := repro.GenerateInstance(seed, next+i)
			exps[i] = solveExpectation(&inst, req)
		})
		for i := range exps {
			switch {
			case len(w.inputs) == need:
			case dropped(exps[i].want(false).code):
				failing++
			default:
				w.inputs = append(w.inputs, input{scenario: next + i})
				w.exp = append(w.exp, &exps[i])
			}
		}
	}
	w.note = fmt.Sprintf("left out %d scenarios the library answers with a shed, timeout or internal code", failing)
	err := batchRequests(w, nreq, uniqueJobs, func(b, j int) int { return b*uniqueJobs + j })
	return w, err
}

// sweepBody is the /v1/pareto document the benchmark sends.
type sweepBody struct {
	Instance     json.RawMessage `json:"instance"`
	Rule         string          `json:"rule"`
	Model        string          `json:"model"`
	PeriodTarget float64         `json:"periodTarget"`
}

// buildParetoSweep takes corpus scenarios in index order, keeps those
// whose exhaustive mapping space holds sweepMinMappings to
// sweepMaxMappings mappings, and asks each one's frontier with a seeded
// period target (the server problem). Below sweepMinMappings a sweep
// takes less time than the HTTP path around it, so the workload would
// time the loopback hop rather than the sweep; above sweepMaxMappings a
// single sweep can take seconds and set a run's throughput.
func buildParetoSweep(seed int64, sweeps int) (*workload, error) {
	n := warmupRequests + sweeps
	w := &workload{name: "pareto-sweep", seed: seed, path: "/v1/pareto", warmup: warmupRequests}
	rng := rand.New(rand.NewSource(seed))
	const chunk = 256
	for next := 0; len(w.inputs) < n; next += chunk {
		crude := make([]float64, chunk)
		parallel(chunk, func(i int) {
			inst, req := repro.GenerateInstance(seed, next+i)
			count, err := exact.CountMappings(&inst, exact.Options{Rule: req.Rule, Modes: exact.AllModes, Limit: sweepMaxMappings})
			if err == nil && count >= sweepMinMappings {
				crude[i] = crudePeriod(&inst)
			}
		})
		for i, c := range crude {
			if c > 0 && len(w.inputs) < n {
				w.inputs = append(w.inputs, input{scenario: next + i, target: (0.2 + 0.8*rng.Float64()) * c})
			}
		}
	}
	jobs, err := encodeInputs(w)
	if err != nil {
		return nil, err
	}
	w.reqs = make([]request, n)
	for i := range w.reqs {
		req := jobs[i].Request
		body, err := json.Marshal(sweepBody{Instance: jobs[i].Instance, Rule: req.Rule, Model: req.Model, PeriodTarget: w.inputs[i].target})
		if err != nil {
			return nil, err
		}
		w.reqs[i] = request{body: body, inputs: []int{i}}
	}
	return w, nil
}

// crudePeriod bounds the weighted global period of any mapping from
// above: every application run as one interval on the slowest processor
// mode over the slowest link.
func crudePeriod(inst *repro.Instance) float64 {
	minSpeed, minBW := math.Inf(1), math.Inf(1)
	for _, p := range inst.Platform.Processors {
		for _, s := range p.Speeds {
			minSpeed = math.Min(minSpeed, s)
		}
	}
	for _, m := range [][][]float64{inst.Platform.Bandwidth, inst.Platform.InBandwidth, inst.Platform.OutBandwidth} {
		for _, row := range m {
			for _, b := range row {
				if b > 0 {
					minBW = math.Min(minBW, b)
				}
			}
		}
	}
	if math.IsInf(minBW, 1) {
		minBW = 1
	}
	worst := 0.0
	for a := range inst.Apps {
		app := &inst.Apps[a]
		data := app.In
		for _, st := range app.Stages {
			data += st.Out
		}
		worst = math.Max(worst, app.EffectiveWeight()*(data/minBW+app.TotalWork()/minSpeed))
	}
	return worst
}
