package cache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Answers is the second cache shape this package provides, built for
// finished query answers rather than intermediate memos: a versioned,
// TTL-aware, size-bounded LRU store. Callers go through Do, a plain
// memo: look up, and on a miss compute and store the result unless it
// failed or the caller vetoed it. Concurrent first requests for one key
// each compute. Do captures the store's version before it computes, so
// a Bump — an append to the data, say — retires everything computed
// before it, fills still in flight included.
//
// Values handed to Put/Do are shared between all future readers and
// must be treated as immutable. Safe for concurrent use.
type Answers[V any] struct {
	cap    int
	ttl    time.Duration // 0 = entries never expire
	sizeOf func(V) int
	now    func() time.Time // test seam for TTL expiry

	mu    sync.Mutex
	m     map[string]*list.Element // key → element holding *aentry[V]
	lru   *list.List               // front = most recently used
	bytes int64

	// version advances on every Bump. Only Bump writes it, under mu, so
	// a put that still sees its fill's starting version under mu stores
	// an answer no Bump has retired.
	version atomic.Uint64

	hits, misses, evictions atomic.Int64
}

// aentry is one stored answer with its expiry.
type aentry[V any] struct {
	key     string
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
	if capacity <= 0 {
		panic("cache: non-positive answer capacity")
	}
	if sizeOf == nil {
		sizeOf = func(V) int { return 1 }
	}
	return &Answers[V]{
		cap:    capacity,
		ttl:    ttl,
		sizeOf: sizeOf,
		now:    time.Now,
		m:      make(map[string]*list.Element, capacity),
		lru:    list.New(),
	}
}

// Get returns the live answer under key, counting the lookup and
// touching the entry's recency. Entries whose TTL has passed are removed
// and reported as misses.
func (a *Answers[V]) Get(key string) (V, bool) {
	a.mu.Lock()
	if el, ok := a.m[key]; ok {
		e := el.Value.(*aentry[V])
		if a.liveLocked(e) {
			a.lru.MoveToFront(el)
			a.mu.Unlock()
			a.hits.Add(1)
			return e.v, true
		}
		a.removeLocked(el)
		a.evictions.Add(1)
	}
	a.mu.Unlock()
	a.misses.Add(1)
	var zero V
	return zero, false
}

// liveLocked reports whether the entry is unexpired.
func (a *Answers[V]) liveLocked(e *aentry[V]) bool {
	return e.expires.IsZero() || !a.now().After(e.expires)
}

// Put stores v under key, evicting from the LRU tail when the store is
// over capacity.
func (a *Answers[V]) Put(key string, v V) { a.put(key, v, a.version.Load()) }

// put stores v unless a Bump has run since version — the version the
// computation began under — was current: an answer computed against
// data that changed mid-computation is dropped, never stored.
func (a *Answers[V]) put(key string, v V, version uint64) {
	size := int64(a.sizeOf(v))
	e := &aentry[V]{key: key, v: v, size: size}
	if a.ttl > 0 {
		e.expires = a.now().Add(a.ttl)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if version != a.version.Load() {
		return
	}
	if el, ok := a.m[key]; ok {
		a.removeLocked(el)
	}
	a.m[key] = a.lru.PushFront(e)
	a.bytes += size
	for a.lru.Len() > a.cap {
		a.removeLocked(a.lru.Back())
		a.evictions.Add(1)
	}
}

// removeLocked unlinks one entry and settles the bytes gauge.
func (a *Answers[V]) removeLocked(el *list.Element) {
	e := el.Value.(*aentry[V])
	a.lru.Remove(el)
	delete(a.m, e.key)
	a.bytes -= e.size
}

// Bump retires every answer at once: it advances the version, empties
// the store, counts the dropped entries as evictions and returns how
// many there were. Fills already in flight began under the old version,
// so put drops them.
func (a *Answers[V]) Bump() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.version.Add(1)
	n := a.lru.Len()
	clear(a.m)
	a.lru.Init()
	a.bytes = 0
	a.evictions.Add(int64(n))
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
func (a *Answers[V]) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lru.Len()
}

// Stats snapshots the store's counters.
func (a *Answers[V]) Stats() AnswerStats {
	a.mu.Lock()
	n, b := a.lru.Len(), a.bytes
	a.mu.Unlock()
	return AnswerStats{
		Hits:      a.hits.Load(),
		Misses:    a.misses.Load(),
		Evictions: a.evictions.Load(),
		Len:       n,
		Bytes:     b,
		Cap:       a.cap,
	}
}
