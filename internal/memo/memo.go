// Package memo is the single-flight LRU memo behind the solver's three
// cache tiers: the batch engine's result tier and plan tier
// (internal/batch) and each compiled plan's query memo (internal/plan).
//
// A Cache maps canonical byte-string keys to computed values. The first
// caller of a key installs an in-flight entry and computes; every caller
// arriving while the computation runs waits on that entry instead of
// recomputing, and later callers are answered from it until it is evicted.
// The guarantees every tier relies on:
//
//   - the entry cap is hard: the cache never holds more entries than its
//     cap, even transiently. In-flight entries may be evicted to keep it;
//     their waiters already hold the entry and still receive its result,
//     only late arrivals on that key lose the single-flight join;
//   - a cap smaller than the requested shard count collapses the cache to
//     one shard: quotas of a single entry would evict whenever two live
//     keys share a shard, so a small cache could not hold its cap's worth
//     of keys;
//   - a panic inside a computation is published as the entry's error, with
//     the stack attached, to the computing caller and every waiter alike;
//   - successful reads pass through the cache's clone function, so callers
//     may mutate what they receive without corrupting later hits;
//   - Forget drops an entry whose value must not be retained.
//
// The package reads no clock and draws no random numbers: which keys hit
// depends only on the sequence of calls, so hit counts replay exactly.
package memo

import (
	"container/list"
	"fmt"
	"runtime/debug"
	"sync"
)

// Cache is a sharded single-flight LRU memo of V values. It is safe for
// concurrent use. The zero value is not usable; call New.
type Cache[V any] struct {
	shards []shard[V]
	clone  func(V) V
}

type shard[V any] struct {
	mu  sync.Mutex
	cap int // this shard's quota; 0 = unbounded
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

// New returns an empty cache holding at most maxEntries entries spread
// over the given number of shards; a non-positive maxEntries means
// unbounded. The shard quotas sum exactly to maxEntries, and a cap below
// the shard count uses a single shard (see the package docs). clone copies
// a stored success for each reader; nil means V is immutable and shared.
func New[V any](maxEntries, shards int, clone func(V) V) *Cache[V] {
	maxEntries = max(maxEntries, 0)
	shards = max(shards, 1)
	if maxEntries > 0 && maxEntries < shards {
		shards = 1
	}
	c := &Cache[V]{shards: make([]shard[V], shards), clone: clone}
	quota, extra := maxEntries/shards, maxEntries%shards
	for i := range c.shards {
		sh := &c.shards[i]
		sh.m = make(map[string]*list.Element)
		if maxEntries > 0 {
			sh.cap = quota
			if i < extra {
				sh.cap++
			}
		}
	}
	return c
}

// ShardIndex returns which of n shards owns key: an FNV-1a hash of the
// whole key, passed through the fmix64 finalizer. The canonical keys are
// highly structured, and FNV-1a's low bits depend only on the low bits of
// the input bytes (a key family that varies only in high-order float
// mantissa bits would land on a few shards), so the finalizer mixes every
// bit of the hash into the low ones. The function is fixed, not seeded,
// so shard placement — and with it every hit count — replays exactly
// from one process to the next.
func ShardIndex[K string | []byte](key K, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211 // FNV-1a prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(n))
}

// Get returns the entry installed under key, counting a hit and marking
// it most recently used. It does not allocate; on a miss it counts
// nothing and the caller goes on to Install.
func (c *Cache[V]) Get(key []byte) (*Entry[V], bool) {
	sh := &c.shards[ShardIndex(key, len(c.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[string(key)]; ok {
		return sh.hitLocked(el), true
	}
	return nil, false
}

// Install returns the entry for key. hit reports whether it was already
// present (possibly still in flight: wait for it with Wait). On a miss a
// new in-flight entry is installed, evicting least recently used entries
// beyond the shard's quota, and the caller must Publish it.
func (c *Cache[V]) Install(key string) (e *Entry[V], hit bool) {
	sh := &c.shards[ShardIndex(key, len(c.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[key]; ok {
		return sh.hitLocked(el), true
	}
	e = &Entry[V]{key: key, ready: make(chan struct{})}
	sh.m[key] = sh.lru.PushFront(e)
	sh.misses++
	for sh.cap > 0 && len(sh.m) > sh.cap {
		back := sh.lru.Back()
		sh.lru.Remove(back)
		delete(sh.m, back.Value.(*Entry[V]).key)
		sh.evictions++
	}
	return e, false
}

func (sh *shard[V]) hitLocked(el *list.Element) *Entry[V] {
	sh.lru.MoveToFront(el)
	sh.hits++
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

// Forget removes e from the cache if it is still the entry installed
// under its key. Waiters already holding e still receive its outcome.
func (c *Cache[V]) Forget(e *Entry[V]) {
	sh := &c.shards[ShardIndex(e.key, len(c.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[e.key]; ok && el.Value.(*Entry[V]) == e {
		sh.lru.Remove(el)
		delete(sh.m, e.key)
	}
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

// Stats sums the counters shard by shard without a global lock, so under
// concurrent traffic the snapshot is approximate (each shard's share is
// itself consistent).
func (c *Cache[V]) Stats() Stats {
	var s Stats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.m)
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Evictions += sh.evictions
		sh.mu.Unlock()
	}
	return s
}
