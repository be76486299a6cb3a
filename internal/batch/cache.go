package batch

import (
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/memo"
	"repro/internal/pipeline"
	"repro/internal/plan"
)

// numShards bounds lock contention on the result tier; keys spread over
// the shards by memo.ShardIndex.
const numShards = 32

// Cache memoizes solver results by canonical job key. It is safe for
// concurrent use and performs single-flight deduplication: when several
// workers ask for the same key at once, exactly one runs the solver and the
// others block until its result is published. A Cache can outlive a single
// Solve call — hand the same Cache to successive batches (via
// Options.Cache) to reuse results across calls, e.g. between the points of
// two Pareto sweeps over overlapping candidate sets, or for the whole life
// of a server process.
//
// A cache built with NewCacheCap is bounded: once the configured entry cap
// is reached the least recently used entries are evicted, so a shared
// cache can serve a long-running process without growing without bound.
// The cap is a hard invariant (see internal/memo for the single-flight
// and eviction guarantees).
//
// Beyond final results, a Cache carries a second tier: compiled plans
// (internal/plan), memoized by the canonical (instance, rule, comm) key.
// The result tier answers exact repeats; the plan tier makes *related*
// requests on the same instance cheap — a Pareto sweep, an experiment
// table, a batch with many queries per instance all compile each distinct
// instance once and answer every query incrementally against the shared
// plan. The plan tier is bounded by the same entry cap (plans are far
// fewer than results: one per distinct instance triple, not per query).
//
// The zero value is not usable; call NewCache or NewCacheCap.
type Cache struct {
	cap     int // total entry cap; 0 = unbounded
	results *memo.Cache[core.Result]
	// plans needs one lock only: plan lookups are orders of magnitude
	// rarer than result lookups (one per result-tier miss). Plans are
	// immutable and safe for concurrent use, so they are shared uncloned.
	plans *memo.Cache[*plan.Plan]
}

// NewCache returns an empty, unbounded memoization cache.
func NewCache() *Cache { return NewCacheCap(0) }

// NewCacheCap returns an empty memoization cache holding at most
// maxEntries results (and at most maxEntries plans); a non-positive
// maxEntries means unbounded. The cap is distributed over the result
// tier's shards so their quotas sum exactly to maxEntries; a cap smaller
// than the shard count uses one shard, so it holds any maxEntries keys.
func NewCacheCap(maxEntries int) *Cache {
	maxEntries = max(maxEntries, 0)
	return &Cache{
		cap:     maxEntries,
		results: memo.New(maxEntries, numShards, plan.CloneResult),
		plans:   memo.New[*plan.Plan](maxEntries, 1, nil),
	}
}

// Cap returns the configured entry cap (0 = unbounded).
func (c *Cache) Cap() int { return c.cap }

// Len returns the number of memoized results (including in-flight ones).
func (c *Cache) Len() int { return c.results.Stats().Entries }

// CacheStats is a point-in-time snapshot of a Cache's counters.
type CacheStats struct {
	// Entries is the current number of memoized keys (including in-flight).
	Entries int
	// Cap is the configured entry cap; 0 = unbounded.
	Cap int
	// Hits counts lookups answered by an existing (possibly in-flight)
	// entry; Misses counts lookups that ran the computation.
	Hits, Misses int64
	// Evictions counts entries dropped to keep the cache under its cap.
	Evictions int64

	// PlanEntries is the number of memoized compiled plans (including
	// in-flight compilations); PlanHits and PlanMisses count plan-tier
	// lookups, PlanEvictions the plans dropped to keep the tier under cap.
	PlanEntries          int
	PlanHits, PlanMisses int64
	PlanEvictions        int64
}

func rateOf(hits, misses int64) float64 {
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 { return rateOf(s.Hits, s.Misses) }

// PlanHitRate returns PlanHits / (PlanHits + PlanMisses), or 0 before any
// plan-tier lookup.
func (s CacheStats) PlanHitRate() float64 { return rateOf(s.PlanHits, s.PlanMisses) }

// Stats returns a snapshot of the cache counters (approximate under
// concurrent traffic; see memo.Cache.Stats).
func (c *Cache) Stats() CacheStats {
	r, p := c.results.Stats(), c.plans.Stats()
	return CacheStats{
		Entries: r.Entries, Cap: c.cap,
		Hits: r.Hits, Misses: r.Misses, Evictions: r.Evictions,
		PlanEntries: p.Entries,
		PlanHits:    p.Hits, PlanMisses: p.Misses, PlanEvictions: p.Evictions,
	}
}

// do returns the result for key, computing it with compute on first
// arrival. hit reports whether an existing (possibly still in-flight)
// computation was reused. The returned Result is an independent copy of
// the stored value; failed computations return the stored Result
// untouched (the zero value), preserving bit-identity with a direct
// core.Solve call. A panic in compute is re-published as the entry's
// error to the computing caller and every waiter alike.
//
// Preempted (budget-expired) results are published to any waiters already
// parked on the entry — they shared the same overloaded window — but never
// retained: whether a wall-clock deadline fired is a property of scheduler
// timing, not of the key, so caching one would let a transient stall
// permanently poison budget-free solves of the same problem.
func (c *Cache) do(key string, compute func() (core.Result, error)) (core.Result, error, bool) {
	e, hit := c.results.Install(key)
	if !hit {
		c.results.Publish(e, compute)
	}
	res, err := c.results.Wait(e)
	if !hit && err == nil && res.Preempted {
		c.results.Forget(e)
	}
	return res, err, hit
}

// PlanFor returns the compiled plan for (inst, rule, model), compiling it
// on first arrival; concurrent requests for the same key wait for the one
// in-flight compilation. hit reports whether an existing (possibly
// in-flight) plan was reused. The returned *Plan is shared — plans are
// immutable and safe for concurrent use, so no copy is needed. A
// compilation failure (invalid instance) is memoized like a result error
// and returned to every waiter, and a panic is published the same way.
func (c *Cache) PlanFor(inst *pipeline.Instance, rule mapping.Rule, model pipeline.CommModel) (*plan.Plan, error, bool) {
	return c.plans.Do(PlanKey(inst, rule, model), func() (*plan.Plan, error) {
		return plan.Compile(inst, rule, model)
	})
}
