package memo

import "testing"

// TestGetDoesNotAllocate pins the byte-key hit path at zero allocations.
func TestGetDoesNotAllocate(t *testing.T) {
	c := New(0, func(v []int) []int { return append([]int(nil), v...) })
	c.Do("some-key", func() ([]int, error) { return []int{1}, nil })
	key := []byte("some-key")
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(key); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("Get allocates %.0f times per hit", n)
	}
}
