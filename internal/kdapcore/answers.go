package kdapcore

// Engine-level answer caching: finished Differentiate and Explore
// results are kept in two versioned, TTL-aware, size-bounded stores
// (cache.Answers) keyed by a canonicalized identity — normalized
// keywords + rank method for Differentiate, subspace signature + every
// result-shaping option for Explore. Lookups and fills go through
// singleflight, so a storm of identical concurrent requests performs
// the computation once; the rest wait and share it. Three rules keep
// cached answers honest:
//
//   - cancelled computations are never cached or shared (PR 3's rule,
//     enforced by cache.Group/cache.Answers);
//   - partial (deadline-degraded) facets are never cached — a complete
//     answer must not be masked by a degraded one;
//   - an append retires every cached explore answer at once, fills in
//     flight included (ingest.go): the store's version stamp is the
//     whole guard.
//
// Cached values ([]*StarNet, *Facets) are shared between callers and
// treated as immutable — the established contract for both types once
// the pipeline returns them (drills build new nets, they never mutate).

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"time"

	"kdap/internal/cache"
	"kdap/internal/telemetry"
)

// answerCacheTTLResolution is documentation-only: TTLs are exact, see
// cache.Answers.

// CacheOutcome classifies how an answer-cached call was served.
type CacheOutcome int

const (
	// CacheBypass: no answer cache is configured, or the call is not
	// cacheable (an Explore with a CustomScore func has no canonical
	// key).
	CacheBypass CacheOutcome = iota
	// CacheMiss: this call performed the computation (and cached it).
	CacheMiss
	// CacheHit: served from the store without computing.
	CacheHit
	// CacheCoalesced: an identical call was already in flight; this one
	// waited and shared its result.
	CacheCoalesced
)

// String renders the outcome as its marker-header token.
func (o CacheOutcome) String() string {
	switch o {
	case CacheMiss:
		return "miss"
	case CacheHit:
		return "hit"
	case CacheCoalesced:
		return "coalesced"
	default:
		return "bypass"
	}
}

// SetAnswerCache enables the engine's answer cache: up to entries
// finished results per phase (Differentiate and Explore each), expiring
// ttl after insertion (0 = no expiry). entries <= 0 disables caching.
// Configure at startup — not safe to call concurrently with queries.
func (e *Engine) SetAnswerCache(entries int, ttl time.Duration) {
	if entries <= 0 {
		e.diffAnswers, e.explAnswers = nil, nil
		return
	}
	e.diffAnswers = cache.NewAnswers[[]*StarNet](entries, ttl, netsFootprint)
	e.explAnswers = cache.NewAnswers[*Facets](entries, ttl, facetsFootprint)
}

// AnswerCacheEnabled reports whether SetAnswerCache has been configured.
func (e *Engine) AnswerCacheEnabled() bool { return e.diffAnswers != nil }

// AnswerCacheStats snapshots both answer stores' counters; ok is false
// when the cache is disabled.
func (e *Engine) AnswerCacheStats() (diff, expl cache.AnswerStats, ok bool) {
	if e.diffAnswers == nil {
		return cache.AnswerStats{}, cache.AnswerStats{}, false
	}
	return e.diffAnswers.Stats(), e.explAnswers.Stats(), true
}

// CanonicalQuery normalizes a keyword query to its cache identity:
// whitespace runs collapse to single spaces. Token case is preserved —
// filter tokens like "UnitPrice>1000" resolve column names
// case-sensitively, so case folding here could change meaning.
func CanonicalQuery(q string) string { return strings.Join(strings.Fields(q), " ") }

// diffAnswerKey is the differentiate store key: rank method + the
// canonicalized query.
func diffAnswerKey(query string, method RankMethod) string {
	return strconv.Itoa(int(method)) + "\x1f" + CanonicalQuery(query)
}

// ExploreCacheKey renders the canonical cache identity of an Explore
// call: the net's subspace signature plus every option that shapes the
// result. ok is false when the call is uncacheable (a CustomScore func
// cannot be canonicalized). Parallel and PartialOnDeadline are
// deliberately excluded — Parallel produces identical output by
// contract (it shapes wall-clock only), and partial results are never
// stored.
func ExploreCacheKey(sn *StarNet, o ExploreOptions) (key string, ok bool) {
	if o.CustomScore != nil {
		return "", false
	}
	var b strings.Builder
	b.WriteString(sn.Signature())
	sep := func() { b.WriteByte('\x1f') }
	sep()
	b.WriteString(strconv.Itoa(int(o.Mode)))
	for _, n := range []int{o.TopKAttrs, o.TopKInstances, o.Buckets, o.DisplayIntervals, o.AnnealIters} {
		sep()
		b.WriteString(strconv.Itoa(n))
	}
	sep()
	b.WriteString(strconv.FormatFloat(o.SkewLimit, 'g', -1, 64))
	sep()
	b.WriteString(strconv.FormatUint(o.Seed, 10))
	sep()
	b.WriteString(strconv.FormatBool(o.RankCorrelation))
	if len(o.Pinned) > 0 {
		pinned := make([]string, len(o.Pinned))
		for i, p := range o.Pinned {
			pinned[i] = p.Table + "." + p.Attr
		}
		sort.Strings(pinned)
		for _, p := range pinned {
			sep()
			b.WriteString(p)
		}
	}
	return b.String(), true
}

// DifferentiateCachedCtx is DifferentiateCtx through the answer cache,
// reporting how the answer was served. Identical concurrent queries
// collapse into one pipeline run; repeats within the TTL are served
// from the store. The returned nets are shared — treat as immutable.
func (e *Engine) DifferentiateCachedCtx(ctx context.Context, query string) ([]*StarNet, CacheOutcome, error) {
	return e.differentiateCached(ctx, query, Standard)
}

func (e *Engine) differentiateCached(ctx context.Context, query string, method RankMethod) ([]*StarNet, CacheOutcome, error) {
	if e.diffAnswers == nil {
		nets, err := e.differentiateRanked(ctx, query, method)
		return nets, CacheBypass, err
	}
	key := diffAnswerKey(query, method)
	_, sp := telemetry.StartSpan(ctx, "cache_lookup")
	nets, ok := e.diffAnswers.Get(key)
	sp.End()
	if ok {
		return nets, CacheHit, nil
	}
	t0 := time.Now()
	nets, outcome, err := e.diffAnswers.Compute(ctx, key, func(ctx context.Context) ([]*StarNet, bool, error) {
		nets, err := e.differentiateRanked(ctx, query, method)
		return nets, err == nil, err
	})
	oc := fromAnswerOutcome(outcome)
	noteShared(ctx, oc, t0)
	return nets, oc, err
}

// ExploreCachedCtx is ExploreCtx through the answer cache, reporting
// how the answer was served. The returned facets are a shallow copy
// bound to the caller's own net; their inner structure is shared and
// must be treated as immutable.
func (e *Engine) ExploreCachedCtx(ctx context.Context, sn *StarNet, opts ExploreOptions) (*Facets, CacheOutcome, error) {
	if e.explAnswers == nil {
		f, err := e.exploreUncached(ctx, sn, opts)
		return f, CacheBypass, err
	}
	key, cacheable := ExploreCacheKey(sn, opts)
	if !cacheable {
		f, err := e.exploreUncached(ctx, sn, opts)
		return f, CacheBypass, err
	}
	_, sp := telemetry.StartSpan(ctx, "cache_lookup")
	f, ok := e.explAnswers.Get(key)
	sp.End()
	if ok {
		return rebindFacets(f, sn), CacheHit, nil
	}
	t0 := time.Now()
	f, outcome, err := e.explAnswers.Compute(ctx, key, func(ctx context.Context) (*Facets, bool, error) {
		f, err := e.exploreUncached(ctx, sn, opts)
		if err != nil {
			return nil, false, err
		}
		// A deadline-degraded result answers this caller but must not
		// shadow the complete answer for everyone after it.
		return f, !f.Partial, nil
	})
	oc := fromAnswerOutcome(outcome)
	noteShared(ctx, oc, t0)
	if err != nil {
		return nil, oc, err
	}
	return rebindFacets(f, sn), oc, nil
}

// noteShared is the one emission site of "adopted a peer's in-flight
// answer": a coalesced caller's work ran in the leader's goroutine, so
// its own span tree would hold only cache_lookup. The wait since t0 is
// recorded as an answer_shared stage; the wide event's cache field
// ("coalesced") marks the request as the follower.
func noteShared(ctx context.Context, oc CacheOutcome, t0 time.Time) {
	if oc == CacheCoalesced {
		telemetry.SpanFromContext(ctx).AddTimed("answer_shared", time.Since(t0))
	}
}

// fromAnswerOutcome maps the store's outcome onto the engine's.
func fromAnswerOutcome(o cache.Outcome) CacheOutcome {
	switch o {
	case cache.OutcomeHit:
		return CacheHit
	case cache.OutcomeCoalesced:
		return CacheCoalesced
	default:
		return CacheMiss
	}
}

// rebindFacets returns a shallow copy of cached facets bound to the
// caller's own star net: the stored entry's Net points at whichever
// equivalent net computed it first, which may belong to another
// session.
func rebindFacets(f *Facets, sn *StarNet) *Facets {
	cp := *f
	cp.Net = sn
	return &cp
}

// netsFootprint approximates the resident bytes of a ranked star-net
// list for the answer cache's bytes gauge: struct and slice headers
// plus string payloads, not a precise deep size.
func netsFootprint(nets []*StarNet) int {
	n := 24
	for _, sn := range nets {
		n += 120 + len(sn.Query)
		for i := range sn.Groups {
			bg := &sn.Groups[i]
			n += 96 + len(bg.Group.Phrase)
			for _, h := range bg.Group.Hits {
				n += 48 + len(h.Value.Text())
			}
		}
		n += 48 * len(sn.Filters)
	}
	return n
}

// facetsFootprint approximates the resident bytes of a facets tree.
func facetsFootprint(f *Facets) int {
	n := 96
	for _, d := range f.Dimensions {
		n += 64 + len(d.Dimension)
		for _, a := range d.Attributes {
			n += 128 + len(a.Attr.Table) + len(a.Attr.Attr) + len(a.Role)
			for _, inst := range a.Instances {
				n += 80 + len(inst.Label)
			}
		}
	}
	return n
}
