// Package cache provides the concurrent caching primitives the serving
// stack is built on. Two shapes, by workload:
//
//   - Clock: a bounded cache with CLOCK (second-chance) eviction,
//     bounded by a count of entries or by a budget of per-entry
//     weights. The OLAP executor and the KDAP engine bound their
//     per-constraint and per-subspace memos with it: CLOCK approximates
//     LRU — a recently hit entry survives one sweep of the hand —
//     without serializing readers the way a linked-list LRU would. Hits
//     take only a read lock plus one atomic store of the reference bit,
//     so concurrent lookups scale.
//
//   - Answers: a versioned, TTL-aware, size-bounded LRU store for
//     finished query answers, with a memo fill (Do), a bytes gauge, and
//     version-stamp invalidation (Bump) so data that changed can never
//     serve answers computed before the change.
//
// Neither makes a request wait on another's computation: two first
// requests for one key each compute, and the later store replaces the
// earlier. The engine's computations are deterministic, so both hold
// the same value.
//
// Clock trades strict recency for read scalability (hot memo lookups);
// Answers keeps strict LRU under one mutex because answer-granularity
// traffic is orders of magnitude lower than memo-granularity traffic.
package cache

import (
	"slices"
	"sync"
	"sync/atomic"
)

// entry holds one cached value with its weight and its second-chance
// reference bit. Values are immutable after insertion; replacing a key
// swaps the whole entry pointer so readers never observe a partial
// write.
type entry[V any] struct {
	v   V
	w   int64
	ref atomic.Bool
}

// Clock is a bounded map cache with CLOCK eviction. The bound is a
// budget of weight: each entry weighs 1 in a cache made by NewClock (a
// count of entries) and what its weigh function says in one made by
// NewWeightedClock (bytes, say). The zero value is not usable. Safe for
// concurrent use.
type Clock[K comparable, V any] struct {
	mu     sync.RWMutex
	budget int64
	weigh  func(V) int64 // nil: every entry weighs 1
	used   int64         // total weight of the entries held
	m      map[K]*entry[V]
	ring   []K // insertion ring the hand sweeps over; len(ring) == len(m)
	hand   int

	// Lifetime telemetry: lock-free monotonic counters the owner can
	// export (the server surfaces them as kdap_cache_*_total series).
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// Stats is a point-in-time snapshot of a cache's lifetime counters.
// Cap is the budget and Weight the weight held, both in the cache's
// unit (entries, unless it was made by NewWeightedClock).
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Len       int
	Weight    int64
	Cap       int64
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the cache's counters.
func (c *Clock[K, V]) Stats() Stats {
	c.mu.RLock()
	n, used := len(c.m), c.used
	c.mu.RUnlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Len:       n,
		Weight:    used,
		Cap:       c.budget,
	}
}

// NewClock creates an empty cache holding at most capacity entries.
func NewClock[K comparable, V any](capacity int) *Clock[K, V] {
	return NewWeightedClock[K, V](int64(capacity), nil)
}

// NewWeightedClock creates an empty cache whose entries weigh
// weigh(v) each and together at most budget, except that one entry
// heavier than the whole budget is held alone. A nil weigh makes every
// entry weigh 1, which is NewClock.
func NewWeightedClock[K comparable, V any](budget int64, weigh func(V) int64) *Clock[K, V] {
	if budget <= 0 {
		panic("cache: non-positive capacity")
	}
	return &Clock[K, V]{budget: budget, weigh: weigh, m: make(map[K]*entry[V])}
}

// Get returns the value cached under k and marks the entry recently
// used.
func (c *Clock[K, V]) Get(k K) (V, bool) {
	c.mu.RLock()
	e := c.m[k]
	c.mu.RUnlock()
	if e == nil {
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	c.hits.Add(1)
	e.ref.Store(true)
	return e.v, true
}

// GetOrPut is Get, except that on a miss it stores mk() under k, unless
// a concurrent caller stored a value first, and returns what it finds
// stored. Two first callers therefore share one value. loaded reports a
// hit; mk runs under the cache's lock.
func (c *Clock[K, V]) GetOrPut(k K, mk func() V) (v V, loaded bool) {
	c.mu.RLock()
	e := c.m[k]
	c.mu.RUnlock()
	if e == nil {
		c.mu.Lock()
		if e = c.m[k]; e == nil {
			e = c.newEntry(mk())
			c.put(k, e)
			c.mu.Unlock()
			c.misses.Add(1)
			return e.v, false
		}
		c.mu.Unlock()
	}
	c.hits.Add(1)
	e.ref.Store(true)
	return e.v, true
}

// Put inserts or replaces the value under k, evicting entries without a
// second chance until it fits the budget.
func (c *Clock[K, V]) Put(k K, v V) {
	e := c.newEntry(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(k, e)
}

func (c *Clock[K, V]) newEntry(v V) *entry[V] {
	e := &entry[V]{v: v, w: 1}
	if c.weigh != nil {
		e.w = c.weigh(v)
	}
	e.ref.Store(true)
	return e
}

// put is Put under the write lock.
func (c *Clock[K, V]) put(k K, e *entry[V]) {
	if old, ok := c.m[k]; ok {
		c.m[k] = e // ring slot is unchanged, only the value rotates
		c.used += e.w - old.w
		c.sweep(0, k)
		return
	}
	if !c.sweep(e.w, k) {
		c.ring = append(c.ring, k)
	} else {
		// The new key takes the last victim's place, behind the hand.
		c.ring = slices.Insert(c.ring, c.hand, k)
		c.hand = (c.hand + 1) % len(c.ring)
	}
	c.m[k] = e
	c.used += e.w
}

// sweep evicts, from the hand on, entries without a second chance until
// need more weight fits the budget, sparing keep; it reports whether it
// evicted anything. A sweep clears reference bits as it passes, so it
// ends within two laps; it stops early when only keep is left.
func (c *Clock[K, V]) sweep(need int64, keep K) bool {
	floor := 0 // entries the sweep must leave: keep, if it is held
	if _, ok := c.m[keep]; ok {
		floor = 1
	}
	evicted := false
	for c.used+need > c.budget && len(c.ring) > floor {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		victim := c.ring[c.hand]
		if victim == keep || c.m[victim].ref.CompareAndSwap(true, false) {
			c.hand = (c.hand + 1) % len(c.ring)
			continue
		}
		c.used -= c.m[victim].w
		delete(c.m, victim)
		c.ring = slices.Delete(c.ring, c.hand, c.hand+1)
		c.evictions.Add(1)
		evicted = true
	}
	return evicted
}

// Purge drops every cached entry. Lifetime counters are kept — a purge
// is an operator action, not amnesia about past traffic. Benchmarks use
// it to force the cold path on every iteration.
func (c *Clock[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[K]*entry[V])
	c.ring = c.ring[:0]
	c.hand = 0
	c.used = 0
}

// Len returns the number of cached entries.
func (c *Clock[K, V]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
