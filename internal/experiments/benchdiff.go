package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/report"
)

// benchBaseline is the subset of BENCH_solver.json the regression gate
// needs: the corpus seed plus each variant's name, batch size and ns/op.
type benchBaseline struct {
	Seed     int64 `json:"seed"`
	Variants []struct {
		Name      string  `json:"name"`
		Scenarios int     `json:"scenarios"`
		NsPerOp   float64 `json:"nsPerOp"`
	} `json:"variants"`
}

// The heuristic corpus variants force the annealer with ExactLimit 1 at a
// fixed budget, so their timing measures the annealer alone and never moves
// with the dispatcher's exact-search limit or the default budget.
const (
	heuristicVariantSuffix = "/heuristic"
	heuristicIters         = 1000
	heuristicRestarts      = 2
)

// CorpusVariant is one named scenario batch of the solver corpus benchmark.
type CorpusVariant struct {
	Name      string
	Scenarios []*gen.Scenario
}

// CorpusVariants groups the seeded solver corpus (2 scenarios per
// combination) into the variants BenchmarkCorpus records in
// BENCH_solver.json and BenchDiff gates, sorted by name: one per (class,
// rule, model, criterion) combination, plus "<combination>/heuristic"
// holding that combination's scenarios that answer through the annealer
// when forced to (ExactLimit 1, heuristicIters x heuristicRestarts).
// Polynomial cells ignore ExactLimit, so they have no heuristic variant.
func CorpusVariants(seed int64) ([]CorpusVariant, error) {
	space := gen.DefaultSpace()
	scenarios := space.Corpus(seed, 2*space.CombinationCount())
	groups := make(map[string][]*gen.Scenario)
	for i := range scenarios {
		sc := &scenarios[i]
		groups[sc.Combo()] = append(groups[sc.Combo()], sc)

		forced := *sc
		forced.Req.ExactLimit = 1
		forced.Req.HeurIters, forced.Req.HeurRestarts = heuristicIters, heuristicRestarts
		res, err := core.Solve(&forced.Inst, forced.Req)
		if err != nil && !errors.Is(err, core.ErrInfeasible) {
			return nil, fmt.Errorf("experiments: %s with the heuristic forced: %w", sc.Name, err)
		}
		if err == nil && res.Method == core.MethodHeuristic {
			name := sc.Combo() + heuristicVariantSuffix
			groups[name] = append(groups[name], &forced)
		}
	}
	out := make([]CorpusVariant, 0, len(groups))
	for name, group := range groups {
		out = append(out, CorpusVariant{Name: name, Scenarios: group})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Timing protocol for the fresh measurement: each variant batch is solved
// benchDiffWarmup times unmeasured (pools populated, branch predictors
// warm), a calibration op sizes the repetition count so every timed run
// lasts at least benchDiffMinRun (microsecond-scale variants need
// thousands of ops before scheduler and timer noise stops dominating),
// then benchDiffReps timed runs are taken keeping the fastest. Best-of-N
// discards interference, which only ever inflates a measurement.
const (
	benchDiffWarmup = 2
	benchDiffReps   = 3
	benchDiffMinRun = 25 * time.Millisecond
	benchDiffMinOps = 10
	benchDiffMaxOps = 50000
)

// BenchDiff compares a fresh timing of the solver corpus against the
// committed BENCH_solver.json baseline and fails when any variant's
// fresh ns/op exceeds factor times its committed ns/op. It rebuilds the
// exact benchmark workload — the seeded verification corpus grouped by
// (class, rule, model, criterion) variant, one op = one-shot solving the
// variant's whole scenario batch — with a hand-rolled best-of-N timer so
// it runs as a plain binary (`make bench-diff`, CI) rather than through
// `go test -bench`. The factor absorbs machine-to-machine variance; the
// gate exists to catch order-of-magnitude algorithmic regressions, not
// single-digit percentages.
func BenchDiff(w io.Writer, path string, factor float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("experiments: reading bench baseline: %w", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("experiments: parsing %s: %w", path, err)
	}
	if len(base.Variants) == 0 {
		return fmt.Errorf("experiments: %s has no variants (regenerate with `make bench-corpus`)", path)
	}

	variants, err := CorpusVariants(base.Seed)
	if err != nil {
		return err
	}
	groups := make(map[string][]*gen.Scenario, len(variants))
	for _, v := range variants {
		groups[v.Name] = v.Scenarios
	}
	if len(variants) != len(base.Variants) {
		return fmt.Errorf("experiments: the corpus has %d variants, %s records %d (stale baseline; regenerate with `make bench-corpus`)",
			len(variants), path, len(base.Variants))
	}

	tb := report.New(fmt.Sprintf("BENCH-DIFF - fresh corpus vs %s (fail > %.1fx)", path, factor),
		"variant", "committed ns/op", "fresh ns/op", "ratio", "ok")
	var regressed []string
	names := make([]string, 0, len(base.Variants))
	byName := make(map[string]int, len(base.Variants))
	for i, v := range base.Variants {
		names = append(names, v.Name)
		byName[v.Name] = i
	}
	sort.Strings(names)
	for _, name := range names {
		v := base.Variants[byName[name]]
		group, ok := groups[name]
		if !ok {
			return fmt.Errorf("experiments: baseline variant %q not in the regenerated corpus (stale %s; regenerate with `make bench-corpus`)", name, path)
		}
		if len(group) != v.Scenarios {
			return fmt.Errorf("experiments: variant %q has %d scenarios, baseline recorded %d (stale %s; regenerate with `make bench-corpus`)",
				name, len(group), v.Scenarios, path)
		}
		if v.NsPerOp <= 0 {
			return fmt.Errorf("experiments: baseline variant %q has non-positive nsPerOp %g", name, v.NsPerOp)
		}
		fresh, err := timeVariant(group)
		if err != nil {
			return fmt.Errorf("experiments: timing variant %q: %w", name, err)
		}
		ratio := fresh / v.NsPerOp
		//lint:allow floatcmp the gate threshold is a coarse factor (2x); round-off at the boundary is immaterial
		mark := okMark(ratio <= factor)
		if ratio > factor {
			regressed = append(regressed, fmt.Sprintf("%s: %.0f ns/op vs committed %.0f ns/op (%.2fx > %.1fx)",
				name, fresh, v.NsPerOp, ratio, factor))
		}
		tb.Addf(name, fmt.Sprintf("%.0f", v.NsPerOp), fmt.Sprintf("%.0f", fresh), fmt.Sprintf("%.2fx", ratio), mark)
	}
	tb.Render(w)
	fmt.Fprintln(w)

	if len(regressed) > 0 {
		msg := "experiments: bench-diff regression gate failed:"
		for _, r := range regressed {
			msg += "\n  " + r
		}
		return errors.New(msg)
	}
	fmt.Fprintf(w, "bench-diff: all %d variants within %.1fx of the committed baseline\n", len(names), factor)
	return nil
}

// timeVariant measures one variant batch with the warmup/best-of protocol
// above and returns ns per op (one op = solving every scenario in the
// group, tolerating infeasible draws exactly as BenchmarkCorpus does).
func timeVariant(group []*gen.Scenario) (float64, error) {
	op := func() error {
		for _, sc := range group {
			if _, err := core.Solve(&sc.Inst, sc.Req); err != nil && !errors.Is(err, core.ErrInfeasible) {
				return fmt.Errorf("%s: %w", sc.Name, err)
			}
		}
		return nil
	}
	for i := 0; i < benchDiffWarmup; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	if err := op(); err != nil {
		return 0, err
	}
	ops := benchDiffMinOps
	if est := time.Since(start); est > 0 {
		if n := int(benchDiffMinRun / est); n > ops {
			ops = n
		}
	}
	if ops > benchDiffMaxOps {
		ops = benchDiffMaxOps
	}
	best := 0.0
	for rep := 0; rep < benchDiffReps; rep++ {
		start := time.Now()
		for i := 0; i < ops; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(ops)
		if rep == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}
