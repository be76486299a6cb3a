package batch

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/memo"
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
		c.do(hexKey(n), func() (core.Result, error) { return solvedResult(float64(n)), nil })
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

// shardKeys returns a generator of distinct keys all hashing to the given
// shard of an n-shard cache.
func shardKeys(shard, n int) func(int) string {
	return func(k int) string {
		for i := 0; ; i++ {
			key := fmt.Sprintf("key-%d-%d", k, i)
			if memo.ShardIndex(key, n) == shard {
				return key
			}
		}
	}
}

// TestCacheLRUOrder checks that touching an entry protects it from
// eviction ahead of colder entries in the same shard.
func TestCacheLRUOrder(t *testing.T) {
	shardKey := shardKeys(0, numShards)
	c := NewCacheCap(numShards * 2) // quota of 2 entries per shard
	compute := func(v float64) func() (core.Result, error) {
		return func() (core.Result, error) { return solvedResult(v), nil }
	}
	c.do(shardKey(1), compute(1))
	c.do(shardKey(2), compute(2))
	c.do(shardKey(1), compute(1)) // touch 1: now 2 is the LRU entry
	c.do(shardKey(3), compute(3)) // evicts 2
	if _, _, hit := c.do(shardKey(1), compute(1)); !hit {
		t.Error("recently used key 1 was evicted")
	}
	if _, _, hit := c.do(shardKey(2), compute(2)); hit {
		t.Error("least recently used key 2 survived past the quota")
	}
}

// TestCacheSmallCapKeepsEveryShardUseful is the small-cap satellite
// regression: NewCacheCap(n) with n below the shard count used to hand
// most shards a zero quota, so entries landing there were evicted at
// publish — memoization and late-arrival single-flight silently vanished
// for most keys. The fix collapses a cache whose cap is below the shard
// count to a single shard, so it holds any cap distinct keys.
func TestCacheSmallCapKeepsEveryShardUseful(t *testing.T) {
	const cap = 5
	c := NewCacheCap(cap)
	// cap distinct keys must all be retained: no shard may evict while the
	// cache as a whole is under its cap.
	for n := 0; n < cap; n++ {
		c.do(hexKey(n), func() (core.Result, error) { return solvedResult(float64(n)), nil })
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("%d evictions while holding %d entries under cap %d", ev, cap, cap)
	}
	if got := c.Len(); got != cap {
		t.Fatalf("Len = %d after %d distinct inserts, want %d", got, cap, cap)
	}
	for n := 0; n < cap; n++ {
		if _, _, hit := c.do(hexKey(n), func() (core.Result, error) {
			t.Errorf("key %d recomputed under cap", n)
			return core.Result{}, nil
		}); !hit {
			t.Errorf("key %d: miss on a retained entry", n)
		}
	}

	// The hard cap invariant must still hold under churn.
	for n := 0; n < 50; n++ {
		c.do(hexKey(100+n), func() (core.Result, error) { return solvedResult(1), nil })
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
		c2.do(hexKey(0), func() (core.Result, error) {
			close(started)
			<-release
			return solvedResult(7), nil
		})
	}()
	<-started
	joined := make(chan bool, 1)
	go func() {
		_, _, hit := c2.do(hexKey(0), func() (core.Result, error) {
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
	c.do(hexKey(1), func() (core.Result, error) { return solvedResult(1), nil })
	if _, _, hit := c.do(hexKey(1), func() (core.Result, error) { return core.Result{}, nil }); !hit {
		t.Error("sole entry not retained at cap 1")
	}
	c.do(hexKey(2), func() (core.Result, error) { return solvedResult(2), nil })
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d at cap 1", got)
	}
	if _, _, hit := c.do(hexKey(2), func() (core.Result, error) { return core.Result{}, nil }); !hit {
		t.Error("newest entry evicted in favour of the displaced one")
	}
}

// TestCacheUnboundedByDefault pins NewCache's unbounded behaviour.
func TestCacheUnboundedByDefault(t *testing.T) {
	c := NewCache()
	for n := 0; n < 500; n++ {
		c.do(hexKey(n), func() (core.Result, error) { return solvedResult(1), nil })
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
		_, err, _ := c.do(key, func() (core.Result, error) {
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
			_, err, hit := c.do(key, func() (core.Result, error) {
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
	_, err, _ := cache.do(hexKey(1), func() (core.Result, error) { panic("boom") })
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
	first, err, _ := c.do(key, func() (core.Result, error) { return solvedResult(5), nil })
	if err != nil {
		t.Fatal(err)
	}
	want := solvedResult(5)
	first.Mapping.Apps[0].Intervals[0].Proc = 99
	first.Value = -1

	second, err, hit := c.do(key, func() (core.Result, error) {
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
	third, _, _ := c.do(key, func() (core.Result, error) { return core.Result{}, nil })
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
				res, err, _ := c.do(hexKey(k), func() (core.Result, error) {
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
	for _, noDedup := range []bool{false, true} {
		results, stats := SolveCtx(ctx, jobs, Options{Workers: 2, NoDedup: noDedup})
		if stats.Errors != len(jobs) {
			t.Errorf("noDedup=%v: Errors = %d, want %d", noDedup, stats.Errors, len(jobs))
		}
		for i, r := range results {
			if r.Err != context.Canceled {
				t.Errorf("noDedup=%v job %d: Err = %v, want context.Canceled", noDedup, i, r.Err)
			}
			if !reflect.DeepEqual(r.Result, core.Result{}) {
				t.Errorf("noDedup=%v job %d: cancelled slot carries a result", noDedup, i)
			}
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
