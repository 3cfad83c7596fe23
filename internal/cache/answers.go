package cache

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Answers holds finished query answers rather than intermediate memos:
// a versioned, TTL-aware store over a count-bounded Clock. Callers go
// through Do, a plain memo: look up, and on a miss compute and store the
// result unless it failed or the caller vetoed it. Concurrent first
// requests for one key each compute. Do captures the store's version
// before it computes, so a Bump — an append to the data, say — retires
// everything computed before it, fills still in flight included.
//
// Values handed to Put/Do are shared between all future readers and
// must be treated as immutable. Safe for concurrent use.
type Answers[V any] struct {
	ttl    time.Duration // 0 = entries never expire
	sizeOf func(V) int
	now    func() time.Time // test seam for TTL expiry
	c      *Clock[string, aentry[V]]

	// mu orders a fill's store against Bump. version advances on every
	// Bump, and only Bump writes it, under mu, so a put that still sees
	// its fill's starting version under mu stores an answer no Bump has
	// retired.
	mu      sync.Mutex
	version atomic.Uint64

	// hits and misses count lookups by what the caller got: an answer
	// past its TTL is a miss. dropped counts the answers that left by
	// TTL expiry or by Bump; the Clock counts its own evictions.
	hits, misses, dropped atomic.Int64
}

// aentry is one stored answer with its size and expiry.
type aentry[V any] struct {
	v       V
	size    int64
	expires time.Time // zero = no expiry
}

// AnswerStats is a point-in-time snapshot of an answer store's
// counters. Evictions counts every removal — capacity pressure, TTL
// expiry, and Bump alike.
type AnswerStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Len       int
	Bytes     int64
	Cap       int
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s AnswerStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewAnswers creates an answer store holding at most capacity entries,
// each expiring ttl after insertion (0 = no expiry). sizeOf estimates an
// entry's resident bytes for the Bytes gauge; nil counts 1 per entry.
func NewAnswers[V any](capacity int, ttl time.Duration, sizeOf func(V) int) *Answers[V] {
	if sizeOf == nil {
		sizeOf = func(V) int { return 1 }
	}
	return &Answers[V]{
		ttl:    ttl,
		sizeOf: sizeOf,
		now:    time.Now,
		c:      NewClock[string, aentry[V]](capacity),
	}
}

// Get returns the live answer under key, counting the lookup. An entry
// whose TTL has passed is removed and reported as a miss.
func (a *Answers[V]) Get(key string) (V, bool) {
	e, ok := a.c.Get(key)
	if ok && !e.expires.IsZero() && a.now().After(e.expires) {
		if a.c.Delete(key) {
			a.dropped.Add(1)
		}
		ok = false
	}
	if !ok {
		a.misses.Add(1)
		var zero V
		return zero, false
	}
	a.hits.Add(1)
	return e.v, true
}

// Put stores v under key, evicting by CLOCK when the store is over
// capacity.
func (a *Answers[V]) Put(key string, v V) { a.put(key, v, a.version.Load()) }

// put stores v unless a Bump has run since version — the version the
// computation began under — was current: an answer computed against
// data that changed mid-computation is dropped, never stored.
func (a *Answers[V]) put(key string, v V, version uint64) {
	e := aentry[V]{v: v, size: int64(a.sizeOf(v))}
	if a.ttl > 0 {
		e.expires = a.now().Add(a.ttl)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if version == a.version.Load() {
		a.c.Put(key, e)
	}
}

// Bump retires every answer at once: it advances the version, empties
// the store, counts the dropped entries as evictions and returns how
// many there were. Fills already in flight began under the old version,
// so put drops them.
func (a *Answers[V]) Bump() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.version.Add(1)
	n := a.c.Purge()
	a.dropped.Add(int64(n))
	return n
}

// Do returns the answer under key and whether it was stored already,
// computing it with fn on a miss. fn's second result vetoes storage:
// return false for answers that must not be cached (degraded/partial
// results). Errors — cancellations included — are never stored, and an
// answer whose computation a Bump overtook is dropped by put.
func (a *Answers[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, bool, error)) (v V, hit bool, err error) {
	if v, ok := a.Get(key); ok {
		return v, true, nil
	}
	ver := a.version.Load()
	v, store, err := fn(ctx)
	if err == nil && store {
		a.put(key, v, ver)
	}
	return v, false, err
}

// Len returns the number of stored entries, including any not yet
// swept after TTL expiry.
func (a *Answers[V]) Len() int { return a.c.Len() }

// Stats snapshots the store's counters.
func (a *Answers[V]) Stats() AnswerStats {
	st := a.c.Stats()
	return AnswerStats{
		Hits:      a.hits.Load(),
		Misses:    a.misses.Load(),
		Evictions: st.Evictions + a.dropped.Load(),
		Len:       st.Len,
		Bytes:     a.c.Sum(func(e aentry[V]) int64 { return e.size }),
		Cap:       int(st.Cap),
	}
}
