package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := NewClock[string, int](4)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %d, %v", v, ok)
	}
	c.Put("a", 10) // replace keeps the entry, swaps the value
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("replaced a = %d", v)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

// A referenced entry survives the hand's pass (the second chance);
// unreferenced entries are the eviction victims.
func TestClockEvictionPrefersRecentlyUsed(t *testing.T) {
	c := NewClock[string, int](4)
	for i, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, i)
	}
	// The first eviction clears every reference bit along its lap and
	// evicts slot 0 ("a"); afterwards only re-touched entries carry a
	// second chance.
	c.Put("e", 4)
	c.Get("c")    // re-reference c
	c.Put("f", 5) // hand at slot 1: "b" is unreferenced → evicted
	c.Put("g", 6) // "c" spends its second chance; "d" is evicted
	if c.Len() != 4 {
		t.Fatalf("len = %d, want capacity 4", c.Len())
	}
	for _, k := range []string{"c", "e", "f", "g"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("key %q should have survived", k)
		}
	}
	for _, k := range []string{"a", "b", "d"} {
		if _, ok := c.Get(k); ok {
			t.Errorf("key %q should have been evicted", k)
		}
	}
}

func TestEvictionNeverExceedsCapacity(t *testing.T) {
	c := NewClock[int, int](16)
	for i := 0; i < 1000; i++ {
		c.Put(i, i)
		if c.Len() > 16 {
			t.Fatalf("len = %d after insert %d", c.Len(), i)
		}
	}
	if c.Len() != 16 {
		t.Fatalf("final len = %d", c.Len())
	}
}

func TestNonPositiveCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewClock[int, int](0)
}

// Hammer the cache from many goroutines; run under -race.
func TestConcurrentAccess(t *testing.T) {
	c := NewClock[string, int](32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%64)
				if v, ok := c.Get(k); ok && v < 0 {
					t.Error("impossible value")
					return
				}
				c.Put(k, i)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Fatalf("len = %d", c.Len())
	}
}

// Stats must count hits, misses, and evictions so the telemetry layer
// can expose cache efficiency (the hit rate PR 1's caches were blind to).
func TestStats(t *testing.T) {
	c := NewClock[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("phantom hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")
	c.Get("a")
	c.Put("c", 3) // capacity 2: must evict
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Evictions != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Len != 2 || st.Cap != 2 {
		t.Errorf("len/cap = %d/%d", st.Len, st.Cap)
	}
	if r := st.HitRate(); r < 0.66 || r > 0.67 {
		t.Errorf("hit rate = %g", r)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty hit rate != 0")
	}
}
