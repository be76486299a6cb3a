package batch

import (
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/memo"
	"repro/internal/pipeline"
	"repro/internal/plan"
)

// Cache memoizes solver results by canonical job key. It is safe for
// concurrent use and performs single-flight deduplication: when several
// workers ask for the same key at once, exactly one runs the solver and the
// others block until its result is published. A Cache can outlive a single
// Solve call — hand the same Cache to successive batches (via
// Options.Cache) to reuse results across calls, e.g. between the points of
// two Pareto sweeps over overlapping candidate sets, or for the whole life
// of a server process.
//
// A Cache holds two memos (see internal/memo for the single-flight and
// eviction guarantees):
//
//   - compiled plans (internal/plan), keyed by PlanKey: the canonical
//     (instance, rule, comm) encoding. A Pareto sweep, an experiment table
//     or a batch with many queries per instance compiles each distinct
//     instance once;
//   - results, in one store that every plan compiled by PlanFor answers
//     its queries from, keyed by Key: PlanKey followed by the query
//     encoding. Each result is stored once, whichever batch, sweep or
//     re-solve asked for it.
//
// A cache built with NewCacheCap is bounded: each memo holds at most the
// configured number of entries and evicts the least recently used beyond
// it, so a shared cache can serve a long-running process without growing
// without bound. The cap is hard: the store never holds more results than
// it, across all plans.
//
// The zero value is not usable; call NewCache or NewCacheCap.
type Cache struct {
	cap     int // entry cap of each memo; 0 = unbounded
	results *memo.Cache[core.Result]
	// Plans are immutable and safe for concurrent use, so they are shared
	// uncloned.
	plans *memo.Cache[*plan.Plan]
}

// NewCache returns an empty, unbounded memoization cache.
func NewCache() *Cache { return NewCacheCap(0) }

// NewCacheCap returns an empty memoization cache holding at most
// maxEntries results (and at most maxEntries plans); a non-positive
// maxEntries means unbounded.
func NewCacheCap(maxEntries int) *Cache {
	maxEntries = max(maxEntries, 0)
	return &Cache{
		cap:     maxEntries,
		results: memo.New(maxEntries, plan.CloneResult),
		plans:   memo.New[*plan.Plan](maxEntries, nil),
	}
}

// Cap returns the configured entry cap (0 = unbounded).
func (c *Cache) Cap() int { return c.cap }

// Len returns the number of memoized results (including in-flight ones).
func (c *Cache) Len() int { return c.results.Stats().Entries }

// CacheStats is a point-in-time snapshot of a Cache's counters.
type CacheStats struct {
	// Entries is the current number of memoized results (including
	// in-flight ones).
	Entries int
	// Cap is the configured entry cap; 0 = unbounded.
	Cap int
	// Hits counts result lookups answered by an existing (possibly
	// in-flight) entry; Misses counts lookups that ran the solver. Every
	// query of a plan from PlanFor is a lookup: batch jobs, Pareto sweep
	// points and re-solves alike.
	Hits, Misses int64
	// Evictions counts results dropped to keep the store under its cap.
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

// Stats returns a snapshot of the cache counters (each memo's counters
// are consistent; the two memos are read one after the other).
func (c *Cache) Stats() CacheStats {
	r, p := c.results.Stats(), c.plans.Stats()
	return CacheStats{
		Entries: r.Entries, Cap: c.cap,
		Hits: r.Hits, Misses: r.Misses, Evictions: r.Evictions,
		PlanEntries: p.Entries,
		PlanHits:    p.Hits, PlanMisses: p.Misses, PlanEvictions: p.Evictions,
	}
}

// PlanFor returns the compiled plan for (inst, rule, model), compiling it
// on first arrival; concurrent requests for the same key wait for the one
// in-flight compilation. hit reports whether an existing (possibly
// in-flight) plan was reused. The plan answers its queries from the
// cache's result store. The returned *Plan is shared — plans are
// immutable and safe for concurrent use, so no copy is needed. A
// compilation failure (invalid instance) is memoized like a result error
// and returned to every waiter, and a panic is published the same way.
func (c *Cache) PlanFor(inst *pipeline.Instance, rule mapping.Rule, model pipeline.CommModel) (*plan.Plan, error, bool) {
	return c.planFor(PlanKey(inst, rule, model), inst, rule, model)
}

// planFor is PlanFor with the plan key already encoded.
func (c *Cache) planFor(key string, inst *pipeline.Instance, rule mapping.Rule, model pipeline.CommModel) (*plan.Plan, error, bool) {
	return c.plans.Do(key, func() (*plan.Plan, error) {
		return plan.CompileIn(c.results, key, inst, rule, model)
	})
}
