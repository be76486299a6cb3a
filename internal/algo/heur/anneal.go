package heur

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// anneal improves m in place by simulated annealing over the interval
// mapping neighbourhood. Infeasible neighbours (objective +Inf) are always
// rejected; the best mapping ever seen is restored at the end.
//
// The loop allocates nothing. It works on three mapping buffers (current,
// candidate, best) whose application slices have room for one interval per
// stage, so no move ever grows them. Each iteration copies current into
// candidate and mutates the candidate; an accept swaps the two pointers,
// and only a new best is copied. The free-processor scratch of the
// relocate and split moves is reused the same way. Every RNG draw and
// float operation is the one a fresh clone per candidate would make, so
// results are bit-identical per (instance, seed).
func anneal(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, obj Objective, opt Options) {
	curV := obj(m)
	bufs := mappingBuffers(inst, 3)
	cur, cand, best := &bufs[0], &bufs[1], &bufs[2]
	copyMapping(cur, m)
	copyMapping(best, m)
	p := inst.Platform.NumProcessors()
	fs := &procScratch{used: make([]bool, p), free: make([]int, 0, p)}
	bestV := curV
	scale := math.Abs(curV)
	if math.IsInf(scale, 1) || scale == 0 {
		scale = 1
	}
	t0 := opt.StartTemp * scale
	t1 := opt.EndTemp * scale
	cool := math.Pow(t1/t0, 1/math.Max(1, float64(opt.Iters-1)))
	temp := t0
	for i := 0; i < opt.Iters; i++ {
		copyMapping(cand, cur)
		if !mutate(rng, inst, cand, opt.Rule, fs) {
			temp *= cool
			continue
		}
		v := obj(cand)
		accept := false
		switch {
		case math.IsInf(v, 1):
			accept = false
		//lint:allow floatcmp annealing acceptance is heuristic; tolerance would only perturb accept probability
		case v <= curV:
			accept = true
		case !math.IsInf(curV, 1):
			accept = rng.Float64() < math.Exp((curV-v)/temp)
		default:
			accept = true // escape from an infeasible start
		}
		if accept {
			cur, cand = cand, cur
			curV = v
			if v < bestV {
				copyMapping(best, cur)
				bestV = v
			}
		}
		temp *= cool
	}
	if bestV < curV {
		*m = *best
	} else {
		*m = *cur
	}
}

// mappingBuffers returns n mappings of inst's shape whose application
// slices are empty with capacity for one interval per stage. All of them
// share two backing arrays.
func mappingBuffers(inst *pipeline.Instance, n int) []mapping.Mapping {
	apps := len(inst.Apps)
	stages := inst.TotalStages()
	appsBuf := make([]mapping.AppMapping, n*apps)
	ivs := make([]mapping.PlacedInterval, n*stages)
	out := make([]mapping.Mapping, n)
	off := 0
	for i := range out {
		out[i].Apps = appsBuf[i*apps : (i+1)*apps : (i+1)*apps]
		for a := range out[i].Apps {
			k := inst.Apps[a].NumStages()
			out[i].Apps[a].Intervals = ivs[off : off : off+k]
			off += k
		}
	}
	return out
}

// copyMapping overwrites dst with src, reusing dst's slices. dst must have
// as many applications as src and room for src's intervals (see
// mappingBuffers); it then allocates nothing.
func copyMapping(dst, src *mapping.Mapping) {
	for a := range src.Apps {
		dst.Apps[a].Intervals = append(dst.Apps[a].Intervals[:0], src.Apps[a].Intervals...)
	}
}

// mutate applies one random neighbourhood move in place. It reports false
// when the drawn move was inapplicable (the caller just retries next
// iteration). All moves preserve mapping validity.
func mutate(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, rule mapping.Rule, fs *procScratch) bool {
	n := 3
	if rule == mapping.Interval {
		n = 6
	}
	switch rng.Intn(n) {
	case 0:
		return moveMode(rng, inst, m)
	case 1:
		return moveRelocate(rng, inst, m, fs)
	case 2:
		return moveSwap(rng, inst, m)
	case 3:
		return moveBoundary(rng, inst, m)
	case 4:
		return moveSplit(rng, inst, m, fs)
	default:
		return moveMerge(rng, inst, m)
	}
}

// pick returns a random (app, interval index) pair.
func pick(rng *rand.Rand, m *mapping.Mapping) (int, int) {
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

// procScratch is the reusable storage behind freeProcs.
type procScratch struct {
	used []bool
	free []int
}

// freeProcs lists processors not used by m in ascending order. The list
// lives in fs and is overwritten by the next call.
func freeProcs(m *mapping.Mapping, fs *procScratch) []int {
	clear(fs.used)
	for a := range m.Apps {
		for _, iv := range m.Apps[a].Intervals {
			fs.used[iv.Proc] = true
		}
	}
	fs.free = fs.free[:0]
	for u, b := range fs.used {
		if !b {
			fs.free = append(fs.free, u)
		}
	}
	return fs.free
}

// moveMode steps one interval's mode up or down.
func moveMode(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping) bool {
	a, j := pick(rng, m)
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

// moveRelocate moves one interval to a free processor at a random mode.
func moveRelocate(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, fs *procScratch) bool {
	free := freeProcs(m, fs)
	if len(free) == 0 {
		return false
	}
	a, j := pick(rng, m)
	iv := &m.Apps[a].Intervals[j]
	u := free[rng.Intn(len(free))]
	iv.Proc = u
	iv.Mode = rng.Intn(inst.Platform.Processors[u].NumModes())
	return true
}

// moveSwap exchanges the processors (and modes) of two intervals.
func moveSwap(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping) bool {
	if m.NumIntervals() < 2 {
		return false
	}
	a1, j1 := pick(rng, m)
	a2, j2 := pick(rng, m)
	if a1 == a2 && j1 == j2 {
		return false
	}
	iv1 := &m.Apps[a1].Intervals[j1]
	iv2 := &m.Apps[a2].Intervals[j2]
	iv1.Proc, iv2.Proc = iv2.Proc, iv1.Proc
	iv1.Mode, iv2.Mode = iv2.Mode, iv1.Mode
	// Clamp modes to the new processors' mode counts.
	clampMode(inst, iv1)
	clampMode(inst, iv2)
	return true
}

func clampMode(inst *pipeline.Instance, iv *mapping.PlacedInterval) {
	if max := inst.Platform.Processors[iv.Proc].NumModes() - 1; iv.Mode > max {
		iv.Mode = max
	}
}

// moveBoundary shifts the boundary between two adjacent intervals of one
// application by one stage.
func moveBoundary(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping) bool {
	a, j := pick(rng, m)
	ivs := m.Apps[a].Intervals
	if len(ivs) < 2 {
		return false
	}
	if j == len(ivs)-1 {
		j--
	}
	left, right := &ivs[j], &ivs[j+1]
	if rng.Intn(2) == 0 {
		// Grow left.
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

// moveSplit splits one interval of length >= 2 onto a free processor,
// inserting the right half in place.
func moveSplit(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, fs *procScratch) bool {
	free := freeProcs(m, fs)
	if len(free) == 0 {
		return false
	}
	a, j := pick(rng, m)
	ivs := m.Apps[a].Intervals
	iv := ivs[j]
	if iv.Len() < 2 {
		return false
	}
	cut := iv.From + rng.Intn(iv.Len()-1) // new boundary after stage `cut`
	u := free[rng.Intn(len(free))]
	right := mapping.PlacedInterval{From: cut + 1, To: iv.To, Proc: u, Mode: rng.Intn(inst.Platform.Processors[u].NumModes())}
	ivs[j].To = cut
	m.Apps[a].Intervals = slices.Insert(ivs, j+1, right)
	return true
}

// moveMerge merges two adjacent intervals of one application onto one of
// their two processors, freeing the other. It deletes in place.
func moveMerge(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping) bool {
	a, j := pick(rng, m)
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
	ivs[j] = keep
	m.Apps[a].Intervals = slices.Delete(ivs, j+1, j+2)
	return true
}

// speedDown is the deterministic greedy polish: repeatedly apply the single
// mode decrement with the best objective improvement until none helps.
func speedDown(inst *pipeline.Instance, m *mapping.Mapping, obj Objective) {
	for {
		cur := obj(m)
		bestA, bestJ := -1, -1
		bestV := cur
		for a := range m.Apps {
			for j := range m.Apps[a].Intervals {
				iv := &m.Apps[a].Intervals[j]
				if iv.Mode == 0 {
					continue
				}
				iv.Mode--
				if v := obj(m); v < bestV {
					bestV, bestA, bestJ = v, a, j
				}
				iv.Mode++
			}
		}
		if bestA < 0 {
			return
		}
		m.Apps[bestA].Intervals[bestJ].Mode--
	}
}

// speedUpIfHelpful raises modes greedily while the objective improves; used
// to make period/latency starts feasible before annealing on bounded
// problems.
func speedUpIfHelpful(inst *pipeline.Instance, m *mapping.Mapping, obj Objective) {
	for {
		cur := obj(m)
		improvedA, improvedJ := -1, -1
		bestV := cur
		for a := range m.Apps {
			for j := range m.Apps[a].Intervals {
				iv := &m.Apps[a].Intervals[j]
				if iv.Mode >= inst.Platform.Processors[iv.Proc].NumModes()-1 {
					continue
				}
				iv.Mode++
				v := obj(m)
				iv.Mode--
				if v < bestV || (math.IsInf(cur, 1) && !math.IsInf(v, 1)) {
					bestV, improvedA, improvedJ = v, a, j
				}
			}
		}
		if improvedA < 0 {
			return
		}
		m.Apps[improvedA].Intervals[improvedJ].Mode++
	}
}
