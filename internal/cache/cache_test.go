package cache

import (
	"fmt"
	"math/rand"
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

// A weighted Clock never holds more than its budget, except for one
// entry heavier than the budget on its own, which it holds alone; a
// replaced entry that grows evicts others, never itself.
func TestWeightedClockStaysWithinBudget(t *testing.T) {
	const budget = 100
	c := NewWeightedClock[int](budget, func(w int64) int64 { return w })
	check := func(after string) {
		t.Helper()
		st := c.Stats()
		if st.Weight > budget && st.Len != 1 {
			t.Fatalf("after %s: %d entries weigh %d, budget %d", after, st.Len, st.Weight, budget)
		}
		if st.Cap != budget {
			t.Fatalf("after %s: cap %d, want the budget %d", after, st.Cap, budget)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		k := rng.Intn(40)
		if rng.Intn(3) == 0 {
			c.Get(k)
			continue
		}
		c.Put(k, int64(1+rng.Intn(30)))
		check(fmt.Sprintf("put %d", i))
	}

	c.Put(-1, 250)
	check("an oversized put")
	if v, ok := c.Get(-1); !ok || v != 250 || c.Len() != 1 {
		t.Fatalf("oversized entry: got %d, %v with %d entries; want it held alone", v, ok, c.Len())
	}
	c.Put(-2, 10)
	if _, ok := c.Get(-1); ok || c.Len() != 1 {
		t.Fatal("a put after the oversized entry did not evict it")
	}
	c.Put(-3, 10)
	c.Put(-4, 10)
	c.Put(-3, 95) // grows: -2 and -4 go, -3 stays
	check("a growing replace")
	if v, ok := c.Get(-3); !ok || v != 95 || c.Len() != 1 {
		t.Fatalf("grown entry: got %d, %v with %d entries; want it held alone", v, ok, c.Len())
	}
	if st := c.Stats(); st.Weight != 95 {
		t.Fatalf("held weight %d, want 95", st.Weight)
	}
	c.Purge()
	if st := c.Stats(); st.Weight != 0 || st.Len != 0 {
		t.Fatalf("after purge: %+v", st)
	}
}

// refClock is the count-bounded CLOCK as it was before entries had
// weights: a fixed ring whose victim's slot takes the new key.
type refClock struct {
	cap  int
	m    map[int]bool // key → reference bit
	ring []int
	hand int
}

func (r *refClock) get(k int) {
	if _, ok := r.m[k]; ok {
		r.m[k] = true
	}
}

func (r *refClock) put(k int) {
	if _, ok := r.m[k]; ok {
		r.m[k] = true
		return
	}
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, k)
		r.m[k] = true
		return
	}
	for {
		victim := r.ring[r.hand]
		if r.m[victim] {
			r.m[victim] = false
			r.hand = (r.hand + 1) % r.cap
			continue
		}
		delete(r.m, victim)
		r.ring[r.hand] = k
		r.m[k] = true
		r.hand = (r.hand + 1) % r.cap
		return
	}
}

// A count-bounded Clock evicts exactly what the fixed-ring CLOCK did,
// lookup for lookup, on a random trace.
func TestCountClockMatchesFixedRing(t *testing.T) {
	const capacity = 8
	c := NewClock[int, int](capacity)
	ref := &refClock{cap: capacity, m: map[int]bool{}}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		k := rng.Intn(24)
		if rng.Intn(2) == 0 {
			c.Get(k)
			ref.get(k)
		} else {
			c.Put(k, i)
			ref.put(k)
		}
		for key := 0; key < 24; key++ {
			c.mu.RLock()
			_, held := c.m[key]
			c.mu.RUnlock()
			if _, want := ref.m[key]; held != want {
				t.Fatalf("op %d: key %d held=%v, the fixed ring's %v", i, key, held, want)
			}
		}
	}
	if st := c.Stats(); st.Weight != int64(st.Len) || st.Len != capacity {
		t.Fatalf("stats %+v, want %d entries of weight 1", st, capacity)
	}
}

// Two first callers of GetOrPut share one stored value.
func TestGetOrPutSharesOneValue(t *testing.T) {
	c := NewClock[string, *int](4)
	var wg sync.WaitGroup
	got := make([]*int, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], _ = c.GetOrPut("k", func() *int { return new(int) })
		}(g)
	}
	wg.Wait()
	for g := range got {
		if got[g] != got[0] {
			t.Fatal("two GetOrPut callers got different values")
		}
	}
	if _, loaded := c.GetOrPut("k", func() *int { t.Error("mk ran on a hit"); return nil }); !loaded {
		t.Error("GetOrPut of a held key reported a miss")
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != int64(len(got)) {
		t.Errorf("stats %+v, want 1 miss and %d hits", st, len(got))
	}
}
