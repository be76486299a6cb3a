package memo

import (
	"strings"
	"testing"
)

func cloneInts(v []int) []int { return append([]int(nil), v...) }

func ints(v ...int) func() ([]int, error) {
	return func() ([]int, error) { return v, nil }
}

// TestForgetOnlyOwnEntry checks Forget drops its entry but leaves a newer
// entry installed under the same key alone.
func TestForgetOnlyOwnEntry(t *testing.T) {
	c := New(1, 1, cloneInts)
	old, _ := c.Install("k")
	c.Publish(old, ints(1))
	c.Install("other") // evicts old at cap 1
	fresh, hit := c.Install("k")
	if hit {
		t.Fatal("evicted key still hit")
	}
	c.Publish(fresh, ints(2))
	c.Forget(old)
	if e, ok := c.Get([]byte("k")); !ok || e != fresh {
		t.Fatal("Forget of a stale entry removed its replacement")
	}
	c.Forget(fresh)
	if _, ok := c.Get([]byte("k")); ok {
		t.Fatal("Forget left its entry installed")
	}
}

// TestGetDoesNotAllocate pins the byte-key hit path at zero allocations.
func TestGetDoesNotAllocate(t *testing.T) {
	c := New(0, 8, cloneInts)
	c.Do("some-key", ints(1))
	key := []byte("some-key")
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(key); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("Get allocates %.0f times per hit", n)
	}
}

// TestShardIndexStable pins the shard function: byte and string keys
// agree, and the placement of a fixed key never changes.
func TestShardIndexStable(t *testing.T) {
	for _, k := range []string{"", "a", "key-1", strings.Repeat("x", 300)} {
		if ShardIndex(k, 32) != ShardIndex([]byte(k), 32) {
			t.Errorf("%q: string and byte forms disagree", k)
		}
	}
	// Fixed values: a seeded hash would move keys between runs.
	if got := ShardIndex("key-1", 32); got != 12 {
		t.Errorf("ShardIndex(key-1, 32) = %d, want 12", got)
	}
	if got := ShardIndex("0123456789abcdef", 32); got != 6 {
		t.Errorf("ShardIndex(0123456789abcdef, 32) = %d, want 6", got)
	}
	if ShardIndex("anything", 1) != 0 {
		t.Error("one shard must own every key")
	}
}
