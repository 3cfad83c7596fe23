package dataset

import (
	"fmt"

	"kdap/internal/relation"
	"kdap/internal/stats"
)

// Scaled AW_ONLINE builds. The paper's warehouse stops at ~60k facts;
// the segment-storage experiments need the same star schema at 1M-10M
// facts, resident (AWOnlineScaled) or streamed straight into a
// warehouse directory so the fact table never materializes in memory
// (persist.AWOnlineScaledBacked). Both builds of the same scale
// generate byte-identical fact rows, which is what makes the resident
// build usable as the oracle for the disk-backed one. Fact storage is
// the caller's choice — persist imports dataset, so the disk-backed
// wiring lives there — and ScaledBuild is the seam: dimensions first,
// then facts streamed wherever, then Finish.

// awScaledSeed keeps scaled builds deterministic and distinct from the
// paper-sized seed build.
const awScaledSeed = 20070

// awScaledCustomers sizes DimCustomer for n facts: roughly one
// customer per 200 sales, never below the paper's 2500 and capped at
// 50k so the dimension stays resident-friendly at 10M facts.
func awScaledCustomers(n int) int {
	c := n / 200
	if c < 2500 {
		c = 2500
	}
	if c > 50000 {
		c = 50000
	}
	return c
}

// ScaledBuild is a partially built scaled AW_ONLINE warehouse: every
// dimension table is resident and populated, and the fact table is
// whatever the caller makes of FactSchema — a resident relation.Table
// or a disk-backed one opened over streamed segment files.
type ScaledBuild struct {
	db         *relation.Database
	sh         *awShared
	rng        *stats.RNG
	custGeo    []int
	nCustomers int
	n          int
}

// NewAWOnlineScaledBuild builds the AW_ONLINE dimensions sized for n
// fact rows and returns the build ready to generate facts.
func NewAWOnlineScaledBuild(n int) *ScaledBuild {
	db := relation.NewDatabase("AW_ONLINE")
	sh := buildAWDimCommon(db, false)
	rng := stats.NewRNG(awScaledSeed)
	nCustomers := awScaledCustomers(n)
	custGeo := buildAWOnlineCustomers(db, rng, sh, nCustomers)
	return &ScaledBuild{db: db, sh: sh, rng: rng, custGeo: custGeo, nCustomers: nCustomers, n: n}
}

// FactSchema returns the FactInternetSales schema the fact storage must
// use.
func (b *ScaledBuild) FactSchema() *relation.Schema { return awOnlineFactSchema() }

// FactCount returns the number of fact rows GenerateFacts will emit.
func (b *ScaledBuild) FactCount() int { return b.n }

// GenerateFacts streams the build's n fact rows, in SalesKey order with
// ingest-clustered order dates, into emit. Call exactly once — the
// generator consumes the build's random stream. Finishing first, over
// an empty fact table, does not change the rows.
func (b *ScaledBuild) GenerateFacts(emit func(vals []relation.Value) error) error {
	return genAWOnlineFacts(b.rng, b.sh, b.custGeo, b.nCustomers, b.n, true, emit)
}

// Finish registers the fact table, builds the schema graph, freezes the
// database, and indexes the full-text columns. fact must hold exactly
// the rows GenerateFacts emitted, under FactSchema.
func (b *ScaledBuild) Finish(fact *relation.Table) (*Warehouse, error) {
	if fact.Len() != b.n {
		return nil, fmt.Errorf("dataset: scaled fact table holds %d rows, want %d", fact.Len(), b.n)
	}
	return b.finish(fact)
}

// FinishPartial is Finish for streaming-ingest scenarios: the fact table
// may hold any prefix of the generated rows, the rest arriving later
// through the incremental append path (kdapcore.AppendFacts). Dimensions
// are sized for the full n-row build, so appended rows always join.
func (b *ScaledBuild) FinishPartial(fact *relation.Table) (*Warehouse, error) {
	if fact.Len() > b.n {
		return nil, fmt.Errorf("dataset: scaled fact table holds %d rows, build generates only %d", fact.Len(), b.n)
	}
	return b.finish(fact)
}

func (b *ScaledBuild) finish(fact *relation.Table) (*Warehouse, error) {
	if err := b.db.AddTable(fact); err != nil {
		return nil, err
	}
	g := awOnlineGraph(b.db)
	return NewWarehouse(b.db, g), nil
}

// AWOnlineScaled builds the AW_ONLINE warehouse with n fact rows fully
// resident. Unlike AWOnline, builds are not cached: callers at the 10M
// scale should hold at most one.
func AWOnlineScaled(n int) *Warehouse {
	b := NewAWOnlineScaledBuild(n)
	fact := relation.NewTable(b.FactSchema())
	ba := relation.NewBatchAppender(fact)
	err := b.GenerateFacts(ba.Append)
	if err == nil {
		err = ba.Flush()
	}
	if err != nil {
		panic(err)
	}
	wh, err := b.Finish(fact)
	if err != nil {
		panic(err)
	}
	return wh
}

// AWOnlineScaledPartial builds the AW_ONLINE warehouse holding only the
// first resident of n generated fact rows, returning the remaining
// n-resident rows in generation order for streaming append. Because the
// generator is seeded, the post-append warehouse holds exactly the rows
// AWOnlineScaled(n) would — the seam the ingest benchmark's fingerprint
// parity check is built on.
func AWOnlineScaledPartial(n, resident int) (*Warehouse, [][]relation.Value) {
	if resident < 0 || resident > n {
		panic(fmt.Sprintf("dataset: resident %d out of range 0..%d", resident, n))
	}
	b := NewAWOnlineScaledBuild(n)
	fact := relation.NewTable(b.FactSchema())
	tail := make([][]relation.Value, 0, n-resident)
	ba := relation.NewBatchAppender(fact)
	i := 0
	err := b.GenerateFacts(func(vals []relation.Value) error {
		if i++; i > resident {
			tail = append(tail, vals)
			return nil
		}
		return ba.Append(vals)
	})
	if err == nil {
		err = ba.Flush()
	}
	if err != nil {
		panic(err)
	}
	wh, err := b.FinishPartial(fact)
	if err != nil {
		panic(err)
	}
	return wh, tail
}
