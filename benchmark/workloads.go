package main

import (
	"math"
	"math/rand"
	"time"
)

// Ingest stream shape (scaled1m.ingest): one open-loop writer posts
// ingestBatchRows-row batches at ingestRate batches a second, i.e.
// 16,384 facts/s — a sixth of what the append path sustains, so the
// workload measures reads beside writes, not a saturated writer.
const (
	ingestBatchRows = 2048
	ingestRate      = 8
	// ingestMaxBatches is the stream the full 30 s window sends; the
	// resident prefix is sized so that exactly this many batches remain.
	ingestMaxBatches = 240
	// drainBatchRows is the batch size the post-window drain uses
	// (the route caps a batch at 65536 rows).
	drainBatchRows = 65536
)

// workload is one named traffic mix. Names are final: later issues
// cite them.
type workload struct {
	name string
	why  string
	// facts is the generated fact count; 0 means dataset.AWOnline()'s
	// fixed 60,398.
	facts int
	// options returns the server options the workload runs under.
	options func() serverOptions
	// zipf deals queries by zipf(1.4) popularity; otherwise each client
	// walks seeded permutations of all 50.
	zipf bool
	// drill extends the session query → explore(top-1) with a drill on a
	// seeded facet instance and an explore of the drilled net.
	drill bool
	// ingest adds the open-loop writer; one reader connection fewer.
	ingest bool
	// window is the measured window of a full run (-seconds 0).
	window time.Duration
	// probes is how many extra fresh processes time set-up; the run's own
	// set-up is one more sample and setup_s is the median of all.
	probes int
	// traceSessions is the fixed length of the serial traced replay.
	traceSessions int
}

var workloads = []workload{
	{
		name: "paper50.uncached",
		why:  "60k facts (the paper's scale), answer cache off: every request runs differentiate and explore in full on small row sets, so per-request work in every layer shows",
		options: func() serverOptions {
			o := defaultServerOptions()
			o.AnswerCacheSize = 0
			return o
		},
		window: 30 * time.Second, probes: 4, traceSessions: 100,
	},
	{
		name:    "paper50.zipf",
		why:     "same warehouse, zipf(1.4) popularity, kdapd defaults: 50 sessions fit the 512-entry answer cache, so server and cache are nearly all of the time",
		options: defaultServerOptions,
		zipf:    true,
		window:  30 * time.Second, probes: 4, traceSessions: 400,
	},
	{
		name:  "scaled1m.drill",
		why:   "1M facts resident, cache off, sessions drill into facet instances: new constraint sets over 17x the rows, so olap's semijoin and group-by scans dominate",
		facts: 1_000_000,
		options: func() serverOptions {
			o := defaultServerOptions()
			o.AnswerCacheSize = 0
			return o
		},
		drill:  true,
		window: 40 * time.Second, probes: 2, traceSessions: 40,
	},
	{
		name:    "scaled1m.ingest",
		why:     "1M facts, half resident, kdapd defaults: an open-loop writer appends 16k facts/s beside cached readers, so invalidation and append cost land on reads",
		facts:   1_000_000,
		options: defaultServerOptions,
		ingest:  true,
		window:  30 * time.Second, probes: 2, traceSessions: 200,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ingestBatches is how many writer batches a fact count affords: the
// full stream at the benchmark's scale (leaving 508,480 of 1M resident),
// at most half of the facts when a test shrinks it.
func ingestBatches(facts int) int {
	n := facts / 2 / ingestBatchRows
	if n > ingestMaxBatches {
		n = ingestMaxBatches
	}
	return n
}

// build generates the workload's warehouse; tail is the not-yet-resident
// suffix of the fact stream (ingest only). facts overrides the scaled
// workloads' fact count when positive (the tests smoke at 20k).
func (w workload) build(facts int) (wh *warehouse, tail [][]factValue) {
	if w.facts == 0 {
		return buildAWOnline(), nil
	}
	if facts <= 0 {
		facts = w.facts
	}
	if !w.ingest {
		return buildAWScaled(facts), nil
	}
	return buildAWScaledPartial(facts, facts-ingestBatches(facts)*ingestBatchRows)
}

// session is one analyst session of a client's sequence: which workload
// query it types and the number that picks the facet instance it drills
// into.
type session struct {
	query int
	drill uint64
}

// Popularity of the zipf workloads: the k-th query of Table 3 is asked
// with weight k^-1.4, the skew search logs show (fits land between 1 and
// 1.5), quantised to a deck of about zipfDeck cards in which every query
// appears at least once. What is popular belongs to the workload, not to
// the seed: a seed that made an expensive query the favourite would
// change what is measured.
const (
	zipfExponent = 1.4
	zipfDeck     = 500
)

// deck returns the multiset of queries a client's sequence deals from:
// each of the n queries once, or zipf-many times.
func (w workload) deck(n int) []int {
	weights := make([]float64, n)
	var total float64
	for k := range weights {
		weights[k] = math.Pow(float64(1+k), -zipfExponent)
		total += weights[k]
	}
	var deck []int
	for q := range weights {
		cards := 1
		if w.zipf {
			cards = max(1, int(math.Round(zipfDeck*weights[q]/total)))
		}
		for i := 0; i < cards; i++ {
			deck = append(deck, q)
		}
	}
	return deck
}

// sequence yields client c's sessions for a seed. The population is the
// workload's and the order is the seed's: every client deals its
// sessions from the workload's deck, reshuffled by the seeded generator
// each time it runs out, and the i-th time a client comes to a query it
// drills into the same facet instance whatever the seed. Runs of equal
// length therefore do the same work in a different order, which keeps
// the spread between seeds down to what the system adds, and the same
// (seed, client) always gives the same sessions, whatever the server
// does.
type sequence struct {
	rng    *rand.Rand
	client int
	deck   []int
	pos    int
	visits map[int]uint64 // query → times dealt so far
}

func newSequence(w workload, seed int64, client, nQueries int) *sequence {
	return &sequence{
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		client: client, deck: w.deck(nQueries), pos: -1, visits: make(map[int]uint64),
	}
}

func (s *sequence) next() session {
	if s.pos < 0 || s.pos == len(s.deck) {
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
		s.pos = 0
	}
	q := s.deck[s.pos]
	s.pos++
	visit := s.visits[q]
	s.visits[q] = visit + 1
	return session{query: q, drill: mix64(uint64(q)<<40 | uint64(s.client)<<32 | visit)}
}

// mix64 is the splitmix64 finalizer: it scatters consecutive visit
// numbers over a query's facet instances.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
