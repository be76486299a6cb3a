// Package memo is the single-flight LRU memo behind the solver's caches:
// the batch engine's result store and plan tier (internal/batch) and the
// private query memo of a standalone compiled plan (internal/plan).
//
// A Cache maps canonical byte-string keys to computed values. The first
// caller of a key installs an in-flight entry and computes; every caller
// arriving while the computation runs waits on that entry instead of
// recomputing, and later callers are answered from it until it is evicted.
// The guarantees every user relies on:
//
//   - the entry cap is hard: the cache never holds more entries than its
//     cap, even transiently. In-flight entries may be evicted to keep it;
//     their waiters already hold the entry and still receive its result,
//     only late arrivals on that key lose the single-flight join;
//   - a panic inside a computation is published as the entry's error, with
//     the stack attached, to the computing caller and every waiter alike;
//   - successful reads pass through the cache's clone function, so callers
//     may mutate what they receive without corrupting later hits.
//
// One mutex guards the whole cache. The package reads no clock and draws
// no random numbers: which keys hit depends only on the sequence of calls,
// so hit counts replay exactly.
package memo

import (
	"container/list"
	"fmt"
	"runtime/debug"
	"sync"
)

// Cache is a single-flight LRU memo of V values. It is safe for
// concurrent use. The zero value is not usable; call New.
type Cache[V any] struct {
	clone func(V) V
	cap   int // 0 = unbounded

	mu  sync.Mutex
	m   map[string]*list.Element
	lru list.List // front = most recently used; values are *Entry[V]

	hits, misses, evictions int64
}

// Entry is one single-flight slot: ready is closed once val and err are
// final, so waiters never observe a partial write.
type Entry[V any] struct {
	key   string
	ready chan struct{}
	val   V
	err   error
}

// Ready is closed once the entry's outcome is published.
func (e *Entry[V]) Ready() <-chan struct{} { return e.ready }

// New returns an empty cache holding at most maxEntries entries; a
// non-positive maxEntries means unbounded. clone copies a stored success
// for each reader; nil means V is immutable and shared.
func New[V any](maxEntries int, clone func(V) V) *Cache[V] {
	return &Cache[V]{clone: clone, cap: max(maxEntries, 0), m: make(map[string]*list.Element)}
}

// Get returns the entry installed under key, counting a hit and marking
// it most recently used. It does not allocate; on a miss it counts
// nothing and the caller goes on to Install.
func (c *Cache[V]) Get(key []byte) (*Entry[V], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[string(key)]; ok {
		return c.hitLocked(el), true
	}
	return nil, false
}

// Install returns the entry for key. hit reports whether it was already
// present (possibly still in flight: wait for it with Wait). On a miss a
// new in-flight entry is installed, evicting least recently used entries
// beyond the cap, and the caller must Publish it.
func (c *Cache[V]) Install(key string) (e *Entry[V], hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		return c.hitLocked(el), true
	}
	e = &Entry[V]{key: key, ready: make(chan struct{})}
	c.m[key] = c.lru.PushFront(e)
	c.misses++
	for c.cap > 0 && len(c.m) > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.m, back.Value.(*Entry[V]).key)
		c.evictions++
	}
	return e, false
}

func (c *Cache[V]) hitLocked(el *list.Element) *Entry[V] {
	c.lru.MoveToFront(el)
	c.hits++
	return el.Value.(*Entry[V])
}

// Publish runs compute for an entry Install has just created and
// publishes the outcome to every waiter. A panic in compute is recovered
// and published as the entry's error, so no waiter is left blocked.
func (c *Cache[V]) Publish(e *Entry[V], compute func() (V, error)) {
	defer func() {
		if r := recover(); r != nil {
			e.err = fmt.Errorf("memo: computation panicked: %v\n%s", r, debug.Stack())
		}
		close(e.ready)
	}()
	e.val, e.err = compute()
}

// Wait blocks until e is published and returns its outcome. A success is
// handed out through the clone function; a failure returns the stored
// value as computed, so a failed read matches a direct call bit for bit.
func (c *Cache[V]) Wait(e *Entry[V]) (V, error) {
	<-e.ready
	if e.err == nil && c.clone != nil {
		return c.clone(e.val), nil
	}
	//lint:allow memoalias failures carry the value as computed, and a cache without a clone holds immutable values (the plan tier's *plan.Plan)
	return e.val, e.err
}

// Do returns the value for key, computing it with compute on first
// arrival; hit reports whether an existing, possibly in-flight, entry was
// reused.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (v V, err error, hit bool) {
	e, hit := c.Install(key)
	if !hit {
		c.Publish(e, compute)
	}
	v, err = c.Wait(e)
	return v, err, hit
}

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	// Entries is the number of memoized keys, in-flight ones included.
	Entries int
	// Hits counts lookups answered by an existing entry; Misses those
	// that installed a new one; Evictions the entries dropped to keep the
	// cache under its cap.
	Hits, Misses, Evictions int64
}

// Stats returns a consistent snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Entries: len(c.m), Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
