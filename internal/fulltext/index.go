package fulltext

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kdap/internal/relation"
	"kdap/internal/telemetry"
)

// Doc identifies one virtual document: a distinct attribute instance. This
// is the paper's conceptual (TabName, AttrID, Document) relation — note the
// attribute-level granularity, which §3 argues is required for KDAP where
// tuple-level indexing (DBExplorer/DISCOVER style) cannot distinguish which
// attribute of a tuple matched.
type Doc struct {
	Table string
	Attr  string
	Value relation.Value
}

// String renders the doc as Table/Attr/"value".
func (d Doc) String() string {
	return fmt.Sprintf("%s/%s/%q", d.Table, d.Attr, d.Value.Text())
}

// Hit is one search result: a matching attribute instance and its
// relevance score (the Sim(h.val, q) of the paper's ranking formula).
type Hit struct {
	Doc   Doc
	Score float64
}

type posting struct {
	doc       int
	positions []int32
}

type termInfo struct {
	postings []posting
}

// Index is a positional inverted index over attribute instances. Build it
// with Add or IndexDatabase, then query with Search / SearchPhrase.
// An Index is safe for concurrent use: searches take a read lock for
// their whole scoring pass, Add takes the write lock,
// so streaming ingest can extend postings while probes run — each probe
// sees either the pre-append or post-append postings, never a torn
// state.
type Index struct {
	mu       sync.RWMutex
	docs     []Doc
	docLens  []int
	totalLen int
	byKey    map[Doc]int
	terms    map[string]*termInfo

	// sortedTerms is the prefix-expansion snapshot: invalidated (set
	// nil) by Add, rebuilt on demand under the read lock. An atomic
	// pointer rather than a lazily mutated field so concurrent searches
	// never write shared state.
	sortedTerms atomic.Pointer[[]string]

	// probeHist records Search/SearchPhrase wall time in seconds; the
	// differentiate phase is probe-bound, so this is the latency window
	// the §7 responsiveness concern cares about. Lock-free to observe,
	// safe alongside concurrent readers.
	probeHist *telemetry.Histogram
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		byKey:     make(map[Doc]int),
		terms:     make(map[string]*termInfo),
		probeHist: telemetry.NewHistogram(nil),
	}
}

// ProbeHistogram exposes the index's probe-latency histogram so owners
// can register it with a telemetry registry.
func (ix *Index) ProbeHistogram() *telemetry.Histogram { return ix.probeHist }

// ProbeCount returns the number of probes recorded (Search and
// SearchPhrase calls).
func (ix *Index) ProbeCount() int64 { return ix.probeHist.Count() }

// DocCount returns the number of indexed attribute instances.
func (ix *Index) DocCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// TermCount returns the number of distinct indexed terms.
func (ix *Index) TermCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.terms)
}

// Add indexes one attribute instance. Re-adding the same (table, attr,
// value) triple is a no-op, so callers may feed raw column scans.
func (ix *Index) Add(table, attr string, value relation.Value) {
	key := Doc{Table: table, Attr: attr, Value: value}
	toks := Tokenize(value.Text())
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, dup := ix.byKey[key]; dup {
		return
	}
	if len(toks) == 0 {
		return
	}
	id := len(ix.docs)
	ix.docs = append(ix.docs, key)
	ix.docLens = append(ix.docLens, len(toks))
	ix.totalLen += len(toks)
	ix.byKey[key] = id
	ix.sortedTerms.Store(nil)
	for _, tok := range toks {
		ti := ix.terms[tok.Term]
		if ti == nil {
			ti = &termInfo{}
			ix.terms[tok.Term] = ti
		}
		if n := len(ti.postings); n > 0 && ti.postings[n-1].doc == id {
			ti.postings[n-1].positions = append(ti.postings[n-1].positions, int32(tok.Pos))
		} else {
			ti.postings = append(ti.postings, posting{doc: id, positions: []int32{int32(tok.Pos)}})
		}
	}
}

// IndexDatabase indexes every distinct value of every FullText column of
// every table in db.
func (ix *Index) IndexDatabase(db *relation.Database) {
	for _, name := range db.TableNames() {
		t := db.Table(name)
		for _, col := range t.Schema().FullTextColumns() {
			for _, v := range t.DistinctValues(col) {
				ix.Add(name, col, v)
			}
		}
	}
}

// idf returns the inverse document frequency of a term with document
// frequency df: 1 + ln(N / (df+1)), Lucene's classic formulation.
func (ix *Index) idf(df int) float64 {
	return 1 + math.Log(float64(len(ix.docs))/float64(df+1))
}

// idfBM25 is the Okapi idf: ln(1 + (N-df+0.5)/(df+0.5)).
func (ix *Index) idfBM25(df int) float64 {
	n := float64(len(ix.docs))
	return math.Log(1 + (n-float64(df)+0.5)/(float64(df)+0.5))
}

// avgDocLen returns the mean document length.
func (ix *Index) avgDocLen() float64 {
	if len(ix.docs) == 0 {
		return 0
	}
	return float64(ix.totalLen) / float64(len(ix.docs))
}

// Similarity selects the document-query scoring function.
type Similarity int

const (
	// ClassicTFIDF is Lucene's classic similarity (sqrt-tf, squared log
	// idf, length norm, coord, query norm) — what the paper's 2007
	// prototype used.
	ClassicTFIDF Similarity = iota
	// BM25 is the Okapi BM25 function with k1 = 1.2, b = 0.75, the
	// modern default; provided for ablations of KDAP's ranking quality
	// under a different text-relevance model.
	BM25
)

// String names the similarity.
func (s Similarity) String() string {
	switch s {
	case ClassicTFIDF:
		return "classic-tfidf"
	case BM25:
		return "bm25"
	default:
		return "unknown"
	}
}

// BM25 parameters.
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Options configure a search.
type Options struct {
	// Prefix enables partial matching: a query term additionally matches
	// every indexed term it prefixes, at a reduced weight. This is the
	// paper's "partial matches" requirement (§3).
	Prefix bool
	// Limit truncates the result list when positive.
	Limit int
	// Similarity selects the scoring function (default ClassicTFIDF).
	Similarity Similarity
}

// prefixWeight scales the contribution of prefix (non-exact) term matches.
const prefixWeight = 0.5

// Search scores every attribute instance against the keyword query using
// classic TF-IDF similarity:
//
//	score(q,d) = coord(q,d) · queryNorm(q) · Σ_t tf(t,d) · idf(t)² · lengthNorm(d)
//
// with tf = sqrt(freq), idf = 1+ln(N/(df+1)), lengthNorm = 1/sqrt(|d|),
// coord = (matched query terms)/(total query terms). Results are sorted by
// descending score with a deterministic tie-break on the doc identity.
func (ix *Index) Search(query string, opts Options) []Hit {
	hits, _ := ix.SearchCtx(context.Background(), query, opts)
	return hits
}

// SearchCtx is Search under a context: the scoring loop checks for
// cancellation between query terms and every cancelCheckPostings
// postings inside a term's posting list, so probes against very common
// terms stop promptly when the caller's deadline fires. Returns
// ctx.Err() on cancellation.
func (ix *Index) SearchCtx(ctx context.Context, query string, opts Options) ([]Hit, error) {
	defer ix.observeProbe(time.Now())
	qterms := Terms(query)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.searchTerms(ctx, qterms, opts)
}

// observeProbe records one probe's latency from its start time.
func (ix *Index) observeProbe(start time.Time) {
	if ix.probeHist != nil { // zero-value Index in tests
		ix.probeHist.Observe(time.Since(start).Seconds())
	}
}

// SearchPhrase returns only the attribute instances in which the query
// terms occur as a consecutive phrase, scored like Search but restricted
// to phrase-containing documents. A single-term phrase degenerates to
// Search without prefix expansion.
func (ix *Index) SearchPhrase(query string, opts Options) []Hit {
	hits, _ := ix.SearchPhraseCtx(context.Background(), query, opts)
	return hits
}

// SearchPhraseCtx is SearchPhrase under a context, with the same
// cancellation points as SearchCtx plus a check per phrase candidate.
func (ix *Index) SearchPhraseCtx(ctx context.Context, query string, opts Options) ([]Hit, error) {
	defer ix.observeProbe(time.Now())
	qterms := Terms(query)
	if len(qterms) == 0 {
		return nil, nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(qterms) == 1 {
		opts.Prefix = false
		return ix.searchTerms(ctx, qterms, opts)
	}
	candidates, err := ix.phraseDocs(ctx, qterms)
	if err != nil {
		return nil, err
	}
	if len(candidates) == 0 {
		return nil, nil
	}
	opts.Prefix = false
	all, err := ix.searchTerms(ctx, qterms, Options{Similarity: opts.Similarity})
	if err != nil {
		return nil, err
	}
	var out []Hit
	for _, h := range all {
		if _, ok := candidates[ix.byKey[h.Doc]]; ok {
			// Phrase confirmation means every query term matched in
			// sequence; reward full-phrase hits with coord = 1 already
			// implied, so the score carries over unchanged.
			out = append(out, h)
		}
	}
	if opts.Limit > 0 && len(out) > opts.Limit {
		out = out[:opts.Limit]
	}
	return out, nil
}

// cancelCheckPostings is the stride between ctx.Err() checks inside a
// posting-list scoring loop: common terms in a large warehouse can
// carry tens of thousands of postings, and the differentiate phase is
// probe-bound.
const cancelCheckPostings = 4096

// searchTerms is the shared scoring core of Search and SearchPhrase.
func (ix *Index) searchTerms(ctx context.Context, qterms []string, opts Options) ([]Hit, error) {
	if len(qterms) == 0 || len(ix.docs) == 0 {
		return nil, nil
	}
	done := ctx.Done()
	type acc struct {
		score   float64
		matched int
	}
	accs := make(map[int]*acc)
	var queryNormSq float64
	touched := 0 // postings scored, counted on the request's trace

	for _, qt := range qterms {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Expand the query term to the indexed terms it matches.
		type match struct {
			ti     *termInfo
			weight float64
		}
		var matches []match
		if ti := ix.terms[qt]; ti != nil {
			matches = append(matches, match{ti, 1})
		} else if opts.Prefix {
			// Partial matching is a fallback for terms with no exact
			// posting — expanding terms that already match exactly would
			// drown precise hits in near-miss noise ("com" →
			// "components").
			for _, term := range ix.prefixTerms(qt) {
				matches = append(matches, match{ix.terms[term], prefixWeight})
			}
		}
		if len(matches) == 0 {
			// Unmatched query terms still count toward coord's denominator
			// but contribute nothing; idf of an absent term is ignored in
			// queryNorm, as Lucene does.
			continue
		}
		seen := make(map[int]bool)
		bestIDF := 0.0
		avgdl := ix.avgDocLen()
		for _, m := range matches {
			df := len(m.ti.postings)
			touched += df
			switch opts.Similarity {
			case BM25:
				idf := ix.idfBM25(df)
				for base := 0; base < len(m.ti.postings); base += cancelCheckPostings {
					if done != nil {
						if err := ctx.Err(); err != nil {
							return nil, err
						}
					}
					end := min(base+cancelCheckPostings, len(m.ti.postings))
					for _, p := range m.ti.postings[base:end] {
						a := accs[p.doc]
						if a == nil {
							a = &acc{}
							accs[p.doc] = a
						}
						tf := float64(len(p.positions))
						dl := float64(ix.docLens[p.doc])
						tfn := tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*dl/avgdl))
						a.score += idf * tfn * m.weight
						if !seen[p.doc] {
							seen[p.doc] = true
							a.matched++
						}
					}
				}
			default: // ClassicTFIDF
				idf := ix.idf(df)
				if idf > bestIDF {
					bestIDF = idf
				}
				w := idf * idf * m.weight
				for base := 0; base < len(m.ti.postings); base += cancelCheckPostings {
					if done != nil {
						if err := ctx.Err(); err != nil {
							return nil, err
						}
					}
					end := min(base+cancelCheckPostings, len(m.ti.postings))
					for _, p := range m.ti.postings[base:end] {
						a := accs[p.doc]
						if a == nil {
							a = &acc{}
							accs[p.doc] = a
						}
						tf := math.Sqrt(float64(len(p.positions)))
						a.score += tf * w / math.Sqrt(float64(ix.docLens[p.doc]))
						if !seen[p.doc] {
							seen[p.doc] = true
							a.matched++
						}
					}
				}
			}
		}
		queryNormSq += bestIDF * bestIDF
	}
	tr := telemetry.FromContext(ctx)
	tr.Add(telemetry.FulltextProbes, 1)
	tr.Add(telemetry.FulltextPostings, touched)
	if len(accs) == 0 {
		return nil, nil
	}
	queryNorm := 1.0
	if queryNormSq > 0 {
		queryNorm = 1 / math.Sqrt(queryNormSq)
	}
	hits := make([]Hit, 0, len(accs))
	for doc, a := range accs {
		score := a.score
		if opts.Similarity != BM25 {
			coord := float64(a.matched) / float64(len(qterms))
			score *= coord * queryNorm
		}
		hits = append(hits, Hit{Doc: ix.docs[doc], Score: score})
	}
	sortHits(hits)
	if opts.Limit > 0 && len(hits) > opts.Limit {
		hits = hits[:opts.Limit]
	}
	return hits, nil
}

// phraseDocs returns the set of doc IDs containing qterms consecutively.
func (ix *Index) phraseDocs(ctx context.Context, qterms []string) (map[int]struct{}, error) {
	infos := make([]*termInfo, len(qterms))
	for i, qt := range qterms {
		infos[i] = ix.terms[qt]
		if infos[i] == nil {
			return nil, nil
		}
	}
	// Intersect postings on the rarest term first for efficiency.
	rarest := 0
	for i, ti := range infos {
		if len(ti.postings) < len(infos[rarest].postings) {
			rarest = i
		}
	}
	done := ctx.Done()
	out := make(map[int]struct{})
	postings := infos[rarest].postings
	telemetry.Count(ctx, telemetry.FulltextPostings, len(postings))
	for base := 0; base < len(postings); base += cancelCheckPostings {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		end := min(base+cancelCheckPostings, len(postings))
		for _, p := range postings[base:end] {
			if ix.docHasPhrase(p.doc, qterms, infos) {
				out[p.doc] = struct{}{}
			}
		}
	}
	return out, nil
}

// docHasPhrase reports whether doc contains the terms at consecutive
// positions.
func (ix *Index) docHasPhrase(doc int, qterms []string, infos []*termInfo) bool {
	positions := make([][]int32, len(qterms))
	for i, ti := range infos {
		j := sort.Search(len(ti.postings), func(k int) bool { return ti.postings[k].doc >= doc })
		if j == len(ti.postings) || ti.postings[j].doc != doc {
			return false
		}
		positions[i] = ti.postings[j].positions
	}
	for _, start := range positions[0] {
		ok := true
		for i := 1; i < len(positions); i++ {
			if !containsPos(positions[i], start+int32(i)) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func containsPos(ps []int32, want int32) bool {
	i := sort.Search(len(ps), func(k int) bool { return ps[k] >= want })
	return i < len(ps) && ps[i] == want
}

// prefixTerms returns the indexed terms having q as a proper or improper
// prefix, capped to avoid pathological expansion. Caller holds the read
// lock; the sorted snapshot is (re)built here when an Add invalidated
// it, and published through an atomic pointer — concurrent rebuilders
// do duplicate work, last store wins, but never mutate shared state.
func (ix *Index) prefixTerms(q string) []string {
	const maxExpansion = 64
	var sorted []string
	if p := ix.sortedTerms.Load(); p != nil {
		sorted = *p
	} else {
		sorted = make([]string, 0, len(ix.terms))
		for t := range ix.terms {
			sorted = append(sorted, t)
		}
		sort.Strings(sorted)
		ix.sortedTerms.Store(&sorted)
	}
	i := sort.SearchStrings(sorted, q)
	var out []string
	for ; i < len(sorted) && len(out) < maxExpansion; i++ {
		if !strings.HasPrefix(sorted[i], q) {
			break
		}
		out = append(out, sorted[i])
	}
	return out
}

// sortHits orders hits by descending score, breaking ties by doc identity
// so results are stable across runs.
func sortHits(hits []Hit) {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		a, b := hits[i].Doc, hits[j].Doc
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Attr != b.Attr {
			return a.Attr < b.Attr
		}
		return a.Value.Text() < b.Value.Text()
	})
}

// Freeze pre-builds the sorted term list used by prefix expansion so
// the first prefix search does not pay for it. Optional: the index is
// safe for concurrent use either way.
func (ix *Index) Freeze() {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.prefixTerms("")
}
