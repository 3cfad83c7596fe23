// Package cache provides the concurrent caching primitives the serving
// stack is built on. Two shapes, by workload:
//
//   - Clock: a fixed-capacity cache with CLOCK (second-chance)
//     eviction. The OLAP executor and the KDAP engine bound their
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
// Neither collapses concurrent identical requests: two first requests
// for one key each compute, and the later store replaces the earlier.
// The engine's computations are deterministic, so both hold the same
// value.
//
// Clock trades strict recency for read scalability (hot memo lookups);
// Answers keeps strict LRU under one mutex because answer-granularity
// traffic is orders of magnitude lower than memo-granularity traffic.
package cache

import (
	"sync"
	"sync/atomic"
)

// entry holds one cached value with its second-chance reference bit.
// Values are immutable after insertion; replacing a key swaps the whole
// entry pointer so readers never observe a partial write.
type entry[V any] struct {
	v   V
	ref atomic.Bool
}

// Clock is a fixed-capacity map cache with CLOCK eviction. The zero
// value is not usable; construct with NewClock. Safe for concurrent use.
type Clock[K comparable, V any] struct {
	mu   sync.RWMutex
	cap  int
	m    map[K]*entry[V]
	ring []K // insertion ring the hand sweeps over; len(ring) == len(m)
	hand int

	// Lifetime telemetry: lock-free monotonic counters the owner can
	// export (the server surfaces them as kdap_cache_*_total series).
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// Stats is a point-in-time snapshot of a cache's lifetime counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Len       int
	Cap       int
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
	n := len(c.m)
	c.mu.RUnlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Len:       n,
		Cap:       c.cap,
	}
}

// NewClock creates an empty cache holding at most capacity entries.
func NewClock[K comparable, V any](capacity int) *Clock[K, V] {
	if capacity <= 0 {
		panic("cache: non-positive capacity")
	}
	return &Clock[K, V]{cap: capacity, m: make(map[K]*entry[V], capacity)}
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

// Put inserts or replaces the value under k, evicting the first entry
// without a second chance when the cache is full.
func (c *Clock[K, V]) Put(k K, v V) {
	e := &entry[V]{v: v}
	e.ref.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; ok {
		c.m[k] = e // ring slot is unchanged, only the value rotates
		return
	}
	if len(c.ring) < c.cap {
		c.ring = append(c.ring, k)
		c.m[k] = e
		return
	}
	// Sweep: clear reference bits until an unreferenced victim appears.
	// Terminates within two laps — the first lap clears every bit.
	for {
		victim := c.ring[c.hand]
		if c.m[victim].ref.CompareAndSwap(true, false) {
			c.hand = (c.hand + 1) % c.cap
			continue
		}
		delete(c.m, victim)
		c.evictions.Add(1)
		c.ring[c.hand] = k
		c.m[k] = e
		c.hand = (c.hand + 1) % c.cap
		return
	}
}

// Purge drops every cached entry. Lifetime counters are kept — a purge
// is an operator action, not amnesia about past traffic. Benchmarks use
// it to force the cold path on every iteration.
func (c *Clock[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[K]*entry[V], c.cap)
	c.ring = c.ring[:0]
	c.hand = 0
}

// Len returns the number of cached entries.
func (c *Clock[K, V]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
