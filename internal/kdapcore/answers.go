package kdapcore

// Engine-level answer caching: finished differentiate and explore
// results are kept in two versioned, TTL-aware, size-bounded stores
// (cache.Answers) keyed by a canonicalized identity — normalized
// keywords + rank method for differentiate, subspace signature + every
// result-shaping option for explore. Lookups and fills go through
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
	"kdap/internal/telemetry/profile"
)

// Answer-cache outcomes, as the request's wide event records them
// (profile's cache field; the server echoes it as X-KDAP-Cache).
const (
	// cacheBypass: no answer cache is configured, or the call is not
	// cacheable (an explore with a CustomScore func has no canonical
	// key).
	cacheBypass = "bypass"
	// cacheMiss: this call performed the computation (and cached it).
	cacheMiss = "miss"
	// cacheHit: served from the store without computing.
	cacheHit = "hit"
	// cacheCoalesced: an identical call was already in flight; this one
	// waited and shared its result.
	cacheCoalesced = "coalesced"
)

// SetAnswerCache enables the engine's answer cache: up to entries
// finished results per phase (differentiate and explore each), expiring
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

// ExploreCacheKey renders the canonical cache identity of an ExploreCtx
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

// noteCache is the one emission site of an answer's cache outcome: it
// records the outcome on the request's wide event, where the server's
// X-KDAP-Cache header and the REPL's profile both read it. A coalesced
// caller's work ran in the leader's goroutine, so its own span tree
// would hold only cache_lookup: its wait since t0 is recorded as an
// answer_shared stage, and the cache field ("coalesced") marks the
// request as the follower.
func noteCache(ctx context.Context, outcome string, t0 time.Time) {
	profile.FromContext(ctx).SetCacheOutcome(outcome)
	if outcome == cacheCoalesced {
		telemetry.SpanFromContext(ctx).AddTimed("answer_shared", time.Since(t0))
	}
}

// fromAnswerOutcome maps the store's outcome onto the wide event's.
func fromAnswerOutcome(o cache.Outcome) string {
	switch o {
	case cache.OutcomeHit:
		return cacheHit
	case cache.OutcomeCoalesced:
		return cacheCoalesced
	default:
		return cacheMiss
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
