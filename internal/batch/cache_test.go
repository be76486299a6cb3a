package batch

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// solvedResult is a small distinguishable Result for direct cache tests.
func solvedResult(v float64) core.Result {
	return core.Result{
		Value:   v,
		Mapping: mapping.Mapping{Apps: []mapping.AppMapping{{Intervals: []mapping.PlacedInterval{{From: 0, To: 1, Proc: int(v), Mode: 0}}}}},
		Method:  core.MethodExact,
		Optimal: true,
	}
}

// hexKey fabricates a distinct cache key from n (keys are arbitrary byte
// strings; the canonical encoding is opaque to the cache).
func hexKey(n int) string {
	return fmt.Sprintf("%064x", n)
}

// TestCacheCapNeverExceeded inserts far more distinct keys than the cap and
// checks the invariant holds after every insertion, with evictions counted.
func TestCacheCapNeverExceeded(t *testing.T) {
	const cap = 50
	c := NewCacheCap(cap)
	for n := 0; n < 10*cap; n++ {
		c.results.Do(hexKey(n), func() (core.Result, error) { return solvedResult(float64(n)), nil })
		if got := c.Len(); got > cap {
			t.Fatalf("after %d inserts: Len = %d exceeds cap %d", n+1, got, cap)
		}
	}
	s := c.Stats()
	if s.Entries > cap || s.Entries == 0 {
		t.Errorf("Stats.Entries = %d, want in (0, %d]", s.Entries, cap)
	}
	if s.Evictions < int64(9*cap) {
		t.Errorf("Evictions = %d, want >= %d", s.Evictions, 9*cap)
	}
	if s.Misses != int64(10*cap) {
		t.Errorf("Misses = %d, want %d", s.Misses, 10*cap)
	}
	if s.Cap != cap {
		t.Errorf("Stats.Cap = %d, want %d", s.Cap, cap)
	}
}

// TestCacheLRUOrder checks that touching an entry protects it from
// eviction ahead of colder entries.
func TestCacheLRUOrder(t *testing.T) {
	c := NewCacheCap(2)
	compute := func(v float64) func() (core.Result, error) {
		return func() (core.Result, error) { return solvedResult(v), nil }
	}
	c.results.Do(hexKey(1), compute(1))
	c.results.Do(hexKey(2), compute(2))
	c.results.Do(hexKey(1), compute(1)) // touch 1: now 2 is the LRU entry
	c.results.Do(hexKey(3), compute(3)) // evicts 2
	if _, _, hit := c.results.Do(hexKey(1), compute(1)); !hit {
		t.Error("recently used key 1 was evicted")
	}
	if _, _, hit := c.results.Do(hexKey(2), compute(2)); hit {
		t.Error("least recently used key 2 survived past the cap")
	}
}

// TestCacheSmallCapKeepsEveryShardUseful checks a small cap holds any cap
// distinct keys, keeps the cap under churn, and still lets a late arrival
// join an in-flight computation.
func TestCacheSmallCapKeepsEveryShardUseful(t *testing.T) {
	const cap = 5
	c := NewCacheCap(cap)
	// cap distinct keys must all be retained: nothing may be evicted while
	// the store is under its cap.
	for n := 0; n < cap; n++ {
		c.results.Do(hexKey(n), func() (core.Result, error) { return solvedResult(float64(n)), nil })
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("%d evictions while holding %d entries under cap %d", ev, cap, cap)
	}
	if got := c.Len(); got != cap {
		t.Fatalf("Len = %d after %d distinct inserts, want %d", got, cap, cap)
	}
	for n := 0; n < cap; n++ {
		if _, _, hit := c.results.Do(hexKey(n), func() (core.Result, error) {
			t.Errorf("key %d recomputed under cap", n)
			return core.Result{}, nil
		}); !hit {
			t.Errorf("key %d: miss on a retained entry", n)
		}
	}

	// The hard cap invariant must still hold under churn.
	for n := 0; n < 50; n++ {
		c.results.Do(hexKey(100+n), func() (core.Result, error) { return solvedResult(1), nil })
		if got := c.Len(); got > cap {
			t.Fatalf("Len = %d exceeds small cap %d", got, cap)
		}
	}

	// Late-arrival single-flight still works at small caps: a waiter
	// arriving while a key is in flight must join it, not recompute.
	c2 := NewCacheCap(3)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c2.results.Do(hexKey(0), func() (core.Result, error) {
			close(started)
			<-release
			return solvedResult(7), nil
		})
	}()
	<-started
	joined := make(chan bool, 1)
	go func() {
		_, _, hit := c2.results.Do(hexKey(0), func() (core.Result, error) {
			return solvedResult(-1), nil
		})
		joined <- hit
	}()
	close(release)
	<-done
	if !<-joined {
		t.Error("late arrival at small cap recomputed instead of joining the in-flight entry")
	}
}

// TestCacheCapOne pins the degenerate single-entry cache: it must behave
// as a 1-entry LRU, never exceed its cap, and still answer repeats.
func TestCacheCapOne(t *testing.T) {
	c := NewCacheCap(1)
	c.results.Do(hexKey(1), func() (core.Result, error) { return solvedResult(1), nil })
	if _, _, hit := c.results.Do(hexKey(1), func() (core.Result, error) { return core.Result{}, nil }); !hit {
		t.Error("sole entry not retained at cap 1")
	}
	c.results.Do(hexKey(2), func() (core.Result, error) { return solvedResult(2), nil })
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d at cap 1", got)
	}
	if _, _, hit := c.results.Do(hexKey(2), func() (core.Result, error) { return core.Result{}, nil }); !hit {
		t.Error("newest entry evicted in favour of the displaced one")
	}
}

// TestCacheUnboundedByDefault pins NewCache's unbounded behaviour.
func TestCacheUnboundedByDefault(t *testing.T) {
	c := NewCache()
	for n := 0; n < 500; n++ {
		c.results.Do(hexKey(n), func() (core.Result, error) { return solvedResult(1), nil })
	}
	if got := c.Len(); got != 500 {
		t.Fatalf("Len = %d, want 500", got)
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("Evictions = %d on an unbounded cache", ev)
	}
}

// TestCachePanicDoesNotDeadlockWaiters is the satellite bugfix regression:
// a panic inside compute must close the ready channel so every concurrent
// waiter on the key unblocks with the panic re-published as an error.
func TestCachePanicDoesNotDeadlockWaiters(t *testing.T) {
	c := NewCache()
	key := hexKey(7)

	started := make(chan struct{})
	release := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err, _ := c.results.Do(key, func() (core.Result, error) {
			close(started)
			<-release
			panic("poisoned request")
		})
		first <- err
	}()
	<-started

	const waiters = 8
	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err, hit := c.results.Do(key, func() (core.Result, error) {
				t.Error("waiter ran compute despite in-flight entry")
				return core.Result{}, nil
			})
			if !hit {
				t.Error("waiter did not join the in-flight computation")
			}
			errs <- err
		}()
	}
	close(release)
	wg.Wait()
	close(errs)

	if err := <-first; err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("computing caller error = %v, want re-published panic", err)
	}
	for err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("waiter error = %v, want re-published panic", err)
		}
	}
}

// TestSolvePanicConfinedToSlot checks a panic inside a memoized
// computation surfaces as that key's error (with the panic value in the
// message), while an ordinary batch on the same cache keeps working.
func TestSolvePanicConfinedToSlot(t *testing.T) {
	cache := NewCache()
	_, err, _ := cache.results.Do(hexKey(1), func() (core.Result, error) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("cache.do returned %v, want panic error", err)
	}
	inst := pipeline.MotivatingExample()
	good := core.Request{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Period}
	results, stats := Solve([]Job{{Inst: &inst, Req: good}}, Options{Cache: cache})
	if results[0].Err != nil || stats.Errors != 0 {
		t.Fatalf("batch on a cache with a poisoned key failed: %v", results[0].Err)
	}
}

// TestCacheReturnsIndependentCopies is the aliasing satellite regression:
// mutating a Result returned by the cache must not corrupt the memoized
// mapping observed by a later hit.
func TestCacheReturnsIndependentCopies(t *testing.T) {
	c := NewCache()
	key := hexKey(3)
	first, err, _ := c.results.Do(key, func() (core.Result, error) { return solvedResult(5), nil })
	if err != nil {
		t.Fatal(err)
	}
	want := solvedResult(5)
	first.Mapping.Apps[0].Intervals[0].Proc = 99
	first.Value = -1

	second, err, hit := c.results.Do(key, func() (core.Result, error) {
		t.Fatal("cache miss after mutation: entry was lost")
		return core.Result{}, nil
	})
	if err != nil || !hit {
		t.Fatalf("second lookup: err=%v hit=%v", err, hit)
	}
	if !reflect.DeepEqual(second, want) {
		t.Errorf("cache hit corrupted by caller mutation:\ngot  %+v\nwant %+v", second, want)
	}
	second.Mapping.Apps[0].Intervals[0].Mode = 42
	third, _, _ := c.results.Do(key, func() (core.Result, error) { return core.Result{}, nil })
	if !reflect.DeepEqual(third, want) {
		t.Error("second mutation leaked into the memoized value")
	}
}

// TestBoundedCacheConcurrentMixedWorkload hammers a small bounded cache
// from many goroutines with overlapping key ranges (run with -race). The
// entry cap must hold at every probe and afterwards, and results must stay
// consistent per key.
func TestBoundedCacheConcurrentMixedWorkload(t *testing.T) {
	const cap = 64
	c := NewCacheCap(cap)
	stop := make(chan struct{})
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if got := c.Len(); got > cap {
					t.Errorf("Len = %d exceeds cap %d under load", got, cap)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 400; n++ {
				k := rng.Intn(3 * cap)
				res, err, _ := c.results.Do(hexKey(k), func() (core.Result, error) {
					if k%7 == 0 {
						return core.Result{}, core.ErrInfeasible
					}
					return solvedResult(float64(k)), nil
				})
				if k%7 == 0 {
					if err == nil {
						t.Errorf("key %d: expected stable error", k)
					}
				} else if err != nil || res.Value != float64(k) {
					t.Errorf("key %d: res=%g err=%v", k, res.Value, err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	probeWG.Wait()
	if got := c.Len(); got > cap {
		t.Fatalf("final Len = %d exceeds cap %d", got, cap)
	}
	if ev := c.Stats().Evictions; ev == 0 {
		t.Error("no evictions under a workload 3x the cap")
	}
}

// TestSolveCtxPreCancelled checks a cancelled context marks every slot with
// ctx.Err() without running the solver.
func TestSolveCtxPreCancelled(t *testing.T) {
	inst := pipeline.MotivatingExample()
	jobs := fig1Jobs(&inst)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, stats := SolveCtx(ctx, jobs, Options{Workers: 2})
	if stats.Errors != len(jobs) {
		t.Errorf("Errors = %d, want %d", stats.Errors, len(jobs))
	}
	for i, r := range results {
		if r.Err != context.Canceled {
			t.Errorf("job %d: Err = %v, want context.Canceled", i, r.Err)
		}
		if !reflect.DeepEqual(r.Result, core.Result{}) {
			t.Errorf("job %d: cancelled slot carries a result", i)
		}
	}
}

// TestSolveCtxCancelMidBatch cancels while a batch is in flight: the call
// must return promptly with every slot filled by either a real result or
// ctx.Err(), and a cancelled re-run must not hang.
func TestSolveCtxCancelMidBatch(t *testing.T) {
	inst := pipeline.MotivatingExample()
	var jobs []Job
	for x := 1; x <= 64; x++ {
		jobs = append(jobs, Job{Inst: &inst, Req: core.Request{
			Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Energy,
			PeriodBounds: core.UniformBounds(&inst, 1+float64(x)/16),
		}})
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var results []JobResult
	go func() {
		defer close(done)
		results, _ = SolveCtx(ctx, jobs, Options{Workers: 2})
	}()
	cancel()
	<-done
	for i, r := range results {
		if r.Err != nil && r.Err != context.Canceled {
			t.Errorf("job %d: unexpected error %v", i, r.Err)
		}
		if r.Err == nil && r.Result.Mapping.Apps == nil {
			t.Errorf("job %d: nil mapping on a successful slot", i)
		}
	}
}

// TestSolveCtxBackgroundMatchesSolve pins that SolveCtx with a background
// context is exactly Solve.
func TestSolveCtxBackgroundMatchesSolve(t *testing.T) {
	inst := pipeline.MotivatingExample()
	jobs := fig1Jobs(&inst)
	got, _ := SolveCtx(context.Background(), jobs, Options{Workers: 4})
	want, _ := Solve(jobs, Options{Workers: 4})
	for i := range jobs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("job %d: SolveCtx differs from Solve", i)
		}
	}
}

// TestCacheCapBoundsResults checks the cap bounds every result the cache
// holds, not just one tier of it: 3000 distinct energy queries on the
// Section 2 instance, interleaved with queries on a second instance,
// through a 4-entry cache. Both plans answer from the one store, so
// neither ever sees more than 4 results.
func TestCacheCapBoundsResults(t *testing.T) {
	const cap, queries, perBatch = 4, 3000, 100
	fig1 := pipeline.MotivatingExample()
	other := pipeline.MotivatingExample()
	other.Apps[0].Weight = 3
	c := NewCacheCap(cap)
	for b := 0; b < queries/perBatch; b++ {
		var jobs []Job
		for i := b * perBatch; i < (b+1)*perBatch; i++ {
			p := 2 + 0.01*float64(i)
			jobs = append(jobs, Job{Inst: &fig1, Req: core.Request{Rule: mapping.Interval, Model: pipeline.Overlap,
				Objective: core.Energy, PeriodBounds: []float64{p, p}}})
			if i%10 == 0 {
				jobs = append(jobs, Job{Inst: &other, Req: core.Request{Rule: mapping.Interval, Model: pipeline.Overlap,
					Objective: core.Period, Seed: int64(i)}})
			}
		}
		results, stats := Solve(jobs, Options{Cache: c, Workers: 2})
		if stats.Errors != 0 {
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("batch %d job %d: %v", b, i, r.Err)
				}
			}
		}
		if got := c.Len(); got > cap {
			t.Fatalf("after batch %d: %d results held, cap %d", b, got, cap)
		}
		for _, inst := range []*pipeline.Instance{&fig1, &other} {
			pl, err, _ := c.PlanFor(inst, mapping.Interval, pipeline.Overlap)
			if err != nil {
				t.Fatal(err)
			}
			if got := pl.QueryStats().Entries; got > cap {
				t.Fatalf("after batch %d: a plan holds %d results, cap %d", b, got, cap)
			}
		}
	}
	if s := c.Stats(); s.Misses < queries || s.Evictions < queries-cap {
		t.Errorf("misses/evictions = %d/%d, want at least %d/%d", s.Misses, s.Evictions, queries, queries-cap)
	}
}

// TestSolveBudgetPreemptedNeverStored checks no preempted result stays in
// the result store: after budgeted batches whose jobs degrade, every job
// key the store holds carries the full solve's clean answer once ready.
func TestSolveBudgetPreemptedNeverStored(t *testing.T) {
	mi := pipeline.MotivatingExample()
	var jobs []Job
	for x := 1; x <= 8; x++ {
		jobs = append(jobs, Job{Inst: &mi, Req: core.Request{Rule: mapping.Interval, Objective: core.Energy,
			PeriodBounds: core.UniformBounds(&mi, 1+float64(x)/4), Seed: 1}})
	}
	jobs = append(jobs, Job{Inst: &mi, Req: core.Request{Rule: mapping.Interval, Objective: core.Latency, Seed: 1}})
	cache := NewCache()
	preempted := 0
	for _, budget := range []time.Duration{time.Nanosecond, time.Microsecond, 20 * time.Microsecond} {
		_, stats := Solve(jobs, Options{Cache: cache, SolveBudget: budget, Workers: 2})
		preempted += stats.Preempted
	}
	if preempted == 0 {
		t.Fatal("no job was preempted: the test exercises nothing")
	}
	for i, job := range jobs {
		e, ok := cache.results.Get([]byte(Key(job.Inst, job.Req)))
		if !ok {
			continue
		}
		res, err := cache.results.Wait(e)
		if err != nil {
			t.Fatalf("job %d: stored error %v", i, err)
		}
		if res.Preempted {
			t.Errorf("job %d: the store holds a preempted result", i)
		}
	}
}
