package heur

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// This file keeps the annealer as it was before the search loop was made
// allocation-free: a fresh clone per candidate, a slice of move functions
// per mutation, a rebuilt free-processor list per move and nested appends
// in split and merge. It is the reference the optimized search must match
// bit for bit: same RNG draws, same float operations, same answers.

func refAnneal(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, obj Objective, opt Options) float64 {
	cur := obj(m)
	best := m.Clone()
	bestV := cur
	scale := math.Abs(cur)
	if math.IsInf(scale, 1) || scale == 0 {
		scale = 1
	}
	t0 := opt.StartTemp * scale
	t1 := opt.EndTemp * scale
	cool := math.Pow(t1/t0, 1/math.Max(1, float64(opt.Iters-1)))
	temp := t0
	for i := 0; i < opt.Iters; i++ {
		cand := m.Clone()
		if !refMutate(rng, inst, &cand, opt.Rule) {
			temp *= cool
			continue
		}
		v := obj(&cand)
		accept := false
		switch {
		case math.IsInf(v, 1):
			accept = false
		case v <= cur:
			accept = true
		case !math.IsInf(cur, 1):
			accept = rng.Float64() < math.Exp((cur-v)/temp)
		default:
			accept = true // escape from an infeasible start
		}
		if accept {
			*m = cand
			cur = v
			if v < bestV {
				best = cand.Clone()
				bestV = v
			}
		}
		temp *= cool
	}
	if bestV < cur {
		*m = best
	}
	return bestV
}

func refMutate(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, rule mapping.Rule) bool {
	moves := []func(*rand.Rand, *pipeline.Instance, *mapping.Mapping) bool{
		refMoveMode, refMoveRelocate, refMoveSwap,
	}
	if rule == mapping.Interval {
		moves = append(moves, refMoveBoundary, refMoveSplit, refMoveMerge)
	}
	return moves[rng.Intn(len(moves))](rng, inst, m)
}

func refPick(rng *rand.Rand, m *mapping.Mapping) (int, int) {
	total := m.NumIntervals()
	i := rng.Intn(total)
	for a := range m.Apps {
		if i < len(m.Apps[a].Intervals) {
			return a, i
		}
		i -= len(m.Apps[a].Intervals)
	}
	panic("unreachable")
}

func refFreeProcs(inst *pipeline.Instance, m *mapping.Mapping) []int {
	used := make([]bool, inst.Platform.NumProcessors())
	for a := range m.Apps {
		for _, iv := range m.Apps[a].Intervals {
			used[iv.Proc] = true
		}
	}
	var free []int
	for u, b := range used {
		if !b {
			free = append(free, u)
		}
	}
	return free
}

func refMoveMode(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping) bool {
	a, j := refPick(rng, m)
	iv := &m.Apps[a].Intervals[j]
	modes := inst.Platform.Processors[iv.Proc].NumModes()
	if modes == 1 {
		return false
	}
	delta := 1
	if rng.Intn(2) == 0 {
		delta = -1
	}
	nm := iv.Mode + delta
	if nm < 0 || nm >= modes {
		nm = iv.Mode - delta
	}
	if nm < 0 || nm >= modes {
		return false
	}
	iv.Mode = nm
	return true
}

func refMoveRelocate(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping) bool {
	free := refFreeProcs(inst, m)
	if len(free) == 0 {
		return false
	}
	a, j := refPick(rng, m)
	iv := &m.Apps[a].Intervals[j]
	u := free[rng.Intn(len(free))]
	iv.Proc = u
	iv.Mode = rng.Intn(inst.Platform.Processors[u].NumModes())
	return true
}

func refMoveSwap(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping) bool {
	if m.NumIntervals() < 2 {
		return false
	}
	a1, j1 := refPick(rng, m)
	a2, j2 := refPick(rng, m)
	if a1 == a2 && j1 == j2 {
		return false
	}
	iv1 := &m.Apps[a1].Intervals[j1]
	iv2 := &m.Apps[a2].Intervals[j2]
	iv1.Proc, iv2.Proc = iv2.Proc, iv1.Proc
	iv1.Mode, iv2.Mode = iv2.Mode, iv1.Mode
	refClampMode(inst, iv1)
	refClampMode(inst, iv2)
	return true
}

func refClampMode(inst *pipeline.Instance, iv *mapping.PlacedInterval) {
	if max := inst.Platform.Processors[iv.Proc].NumModes() - 1; iv.Mode > max {
		iv.Mode = max
	}
}

func refMoveBoundary(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping) bool {
	a, j := refPick(rng, m)
	ivs := m.Apps[a].Intervals
	if len(ivs) < 2 {
		return false
	}
	if j == len(ivs)-1 {
		j--
	}
	left, right := &ivs[j], &ivs[j+1]
	if rng.Intn(2) == 0 {
		if right.Len() <= 1 {
			return false
		}
		left.To++
		right.From++
	} else {
		if left.Len() <= 1 {
			return false
		}
		left.To--
		right.From--
	}
	return true
}

func refMoveSplit(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping) bool {
	free := refFreeProcs(inst, m)
	if len(free) == 0 {
		return false
	}
	a, j := refPick(rng, m)
	ivs := m.Apps[a].Intervals
	iv := ivs[j]
	if iv.Len() < 2 {
		return false
	}
	cut := iv.From + rng.Intn(iv.Len()-1)
	u := free[rng.Intn(len(free))]
	right := mapping.PlacedInterval{From: cut + 1, To: iv.To, Proc: u, Mode: rng.Intn(inst.Platform.Processors[u].NumModes())}
	ivs[j].To = cut
	m.Apps[a].Intervals = append(ivs[:j+1], append([]mapping.PlacedInterval{right}, ivs[j+1:]...)...)
	return true
}

func refMoveMerge(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping) bool {
	a, j := refPick(rng, m)
	ivs := m.Apps[a].Intervals
	if len(ivs) < 2 {
		return false
	}
	if j == len(ivs)-1 {
		j--
	}
	keep := ivs[j]
	if rng.Intn(2) == 1 {
		keep = ivs[j+1]
	}
	keep.From = ivs[j].From
	keep.To = ivs[j+1].To
	m.Apps[a].Intervals = append(ivs[:j], append([]mapping.PlacedInterval{keep}, ivs[j+2:]...)...)
	return true
}

// refSearch is search driving refAnneal, with the clone-per-improvement
// bookkeeping of the reference.
func refSearch(rng *rand.Rand, inst *pipeline.Instance, rule mapping.Rule, obj Objective, opt Options) (mapping.Mapping, float64, error) {
	opt.Rule = rule
	opt = opt.withDefaults()
	var best mapping.Mapping
	bestV := math.Inf(1)
	haveBest := false
	for r := 0; r < opt.Restarts; r++ {
		m, err := initial(rng, inst, rule, r)
		if err != nil {
			return mapping.Mapping{}, 0, err
		}
		speedUpIfHelpful(inst, &m, obj)
		refAnneal(rng, inst, &m, obj, opt)
		speedDown(inst, &m, obj)
		v := obj(&m)
		if !haveBest || v < bestV {
			best, bestV, haveBest = m.Clone(), v, true
		}
	}
	if !haveBest {
		return mapping.Mapping{}, 0, ErrNoMapping
	}
	return best, bestV, nil
}

// refMinEnergyGivenPeriodLatency is MinEnergyGivenPeriodLatency with the
// reference search and mapping.Energy's per-interval math.Pow.
func refMinEnergyGivenPeriodLatency(rng *rand.Rand, inst *pipeline.Instance, rule mapping.Rule, model pipeline.CommModel, periodBounds, latencyBounds []float64, opt Options) (mapping.Mapping, float64, error) {
	obj := func(m *mapping.Mapping) float64 {
		for a := range m.Apps {
			if !fmath.LE(mapping.AppPeriod(inst, m, a, model), periodBounds[a]) {
				return math.Inf(1)
			}
			if !fmath.LE(mapping.AppLatency(inst, m, a), latencyBounds[a]) {
				return math.Inf(1)
			}
		}
		return mapping.Energy(inst, m)
	}
	best, bestV, err := refSearch(rng, inst, rule, obj, opt)
	if err != nil {
		return mapping.Mapping{}, 0, err
	}
	if math.IsInf(bestV, 1) {
		return mapping.Mapping{}, 0, fmt.Errorf("heur: no feasible mapping found within the search budget")
	}
	speedDown(inst, &best, obj)
	return best, obj(&best), nil
}

// TestSearchMatchesReference cross-checks the allocation-free annealer
// against the reference on 600 seeded instances, under both rules, for the
// period, latency and bounded-energy searches: same error, same mapping and
// the same value bit for bit.
func TestSearchMatchesReference(t *testing.T) {
	classes := []pipeline.Class{pipeline.FullyHomogeneous, pipeline.CommHomogeneous, pipeline.FullyHeterogeneous}
	models := []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap}
	rng := rand.New(rand.NewSource(13))
	solved := map[string]int{}
	for trial := 0; trial < 600; trial++ {
		cfg := workload.Config{
			Apps: 1 + rng.Intn(3), MinStages: 1, MaxStages: 2 + rng.Intn(5),
			Procs: 2 + rng.Intn(9), Modes: 1 + rng.Intn(3),
			Class: classes[trial%len(classes)], MaxWork: 12, MaxData: rng.Intn(6), MaxSpeed: 8, MaxBandwidth: 4,
		}
		inst := workload.MustInstance(rng, cfg)
		model := models[rng.Intn(len(models))]
		opt := Options{Iters: 150 + rng.Intn(150), Restarts: 1 + rng.Intn(3)}
		seed := rng.Int63()
		for _, rule := range []mapping.Rule{mapping.Interval, mapping.OneToOne} {
			// Bounds around the greedy start's per-application period and
			// latency: tight draws leave some searches infeasible.
			periodB := make([]float64, len(inst.Apps))
			latencyB := make([]float64, len(inst.Apps))
			if start, err := initial(rng, &inst, rule, 0); err == nil {
				for a := range inst.Apps {
					periodB[a] = mapping.AppPeriod(&inst, &start, a, model) * (0.9 + rng.Float64())
					latencyB[a] = mapping.AppLatency(&inst, &start, a) * (1 + rng.Float64())
				}
			}
			periodObj := func(m *mapping.Mapping) float64 { return mapping.Period(&inst, m, model) }
			latencyObj := func(m *mapping.Mapping) float64 { return mapping.Latency(&inst, m) }
			type searchFn func(*rand.Rand) (mapping.Mapping, float64, error)
			runs := []struct {
				name     string
				got, ref searchFn
			}{{
				name: "period",
				got:  func(r *rand.Rand) (mapping.Mapping, float64, error) { return MinPeriod(r, &inst, rule, model, opt) },
				ref:  func(r *rand.Rand) (mapping.Mapping, float64, error) { return refSearch(r, &inst, rule, periodObj, opt) },
			}, {
				name: "latency",
				got:  func(r *rand.Rand) (mapping.Mapping, float64, error) { return MinLatency(r, &inst, rule, opt) },
				ref: func(r *rand.Rand) (mapping.Mapping, float64, error) {
					return refSearch(r, &inst, rule, latencyObj, opt)
				},
			}, {
				name: "energy",
				got: func(r *rand.Rand) (mapping.Mapping, float64, error) {
					return MinEnergyGivenPeriodLatency(r, &inst, rule, model, periodB, latencyB, opt)
				},
				ref: func(r *rand.Rand) (mapping.Mapping, float64, error) {
					return refMinEnergyGivenPeriodLatency(r, &inst, rule, model, periodB, latencyB, opt)
				},
			}}
			for _, run := range runs {
				label := fmt.Sprintf("trial %d %v/%v %s (%d apps, %d procs, %+v)",
					trial, rule, model, run.name, len(inst.Apps), inst.Platform.NumProcessors(), opt)
				gm, gv, gerr := run.got(rand.New(rand.NewSource(seed)))
				rm, rv, rerr := run.ref(rand.New(rand.NewSource(seed)))
				if (gerr == nil) != (rerr == nil) || (gerr != nil && gerr.Error() != rerr.Error()) {
					t.Fatalf("%s: err %v, reference err %v", label, gerr, rerr)
				}
				if math.Float64bits(gv) != math.Float64bits(rv) {
					t.Fatalf("%s: value %v, reference %v", label, gv, rv)
				}
				if !reflect.DeepEqual(gm, rm) {
					t.Fatalf("%s: mapping %s, reference %s", label, gm.String(), rm.String())
				}
				if gerr == nil && !math.IsInf(gv, 1) {
					solved[run.name]++
				}
			}
		}
	}
	t.Logf("searches with a finite answer, of 1200 each: %v", solved)
	for _, name := range []string{"period", "latency", "energy"} {
		if solved[name] < 600 {
			t.Errorf("only %d %s searches found a finite answer; the cross-check needs most of them to", solved[name], name)
		}
	}
}
