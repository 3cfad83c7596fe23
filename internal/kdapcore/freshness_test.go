package kdapcore

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"kdap/internal/dataset"
	"kdap/internal/fulltext"
	"kdap/internal/olap"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

// netsDigest renders ranked nets exactly: each net's signature and its
// score in hexadecimal, in rank order.
func netsDigest(nets []*StarNet) string {
	var b strings.Builder
	for _, sn := range nets {
		b.WriteString(sn.Signature() + " " + hexFloat(sn.Score) + "\n")
	}
	return b.String()
}

// noteMart is a one-dimension warehouse whose fact table carries a
// full-text Note column, so an appended fact can add index terms.
func noteMart(t *testing.T) *Engine {
	t.Helper()
	db := relation.NewDatabase("notes")
	shop := db.MustCreateTable(relation.MustSchema("Shop", []relation.Column{
		{Name: "ShopKey", Kind: relation.KindInt},
		{Name: "City", Kind: relation.KindString, FullText: true},
	}, "ShopKey", nil))
	shop.MustAppend(relation.Int(1), relation.String("Lisbon"))
	shop.MustAppend(relation.Int(2), relation.String("Porto"))
	sales := db.MustCreateTable(relation.MustSchema("Sales", []relation.Column{
		{Name: "ShopKey", Kind: relation.KindInt},
		{Name: "Note", Kind: relation.KindString, FullText: true},
		{Name: "Quantity", Kind: relation.KindInt},
	}, "", []relation.ForeignKey{{Column: "ShopKey", RefTable: "Shop", RefColumn: "ShopKey"}}))
	for i := 0; i < 6; i++ {
		note := []string{"online", "kiosk"}[i%2]
		sales.MustAppend(relation.Int(int64(i%2+1)), relation.String(note), relation.Int(int64(i+1)))
	}
	g := schemagraph.New(db, "Sales")
	if err := g.AddDimension(&schemagraph.Dimension{
		Name: "Shop", Tables: []string{"Shop"},
		GroupBy: []schemagraph.AttrRef{{Table: "Shop", Attr: "City"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	db.Freeze()
	ix := fulltext.NewIndex()
	ix.IndexDatabase(db)
	ix.Freeze()
	return NewEngine(g, ix, olap.CountMeasure(), olap.Sum)
}

// holdFill runs fill on its own goroutine and returns once fill has
// called block, which parks it. release lets it finish and waits for
// it; calling release again is a no-op.
func holdFill(t *testing.T, fill func(block func())) (release func()) {
	t.Helper()
	started, gate, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		fill(func() {
			close(started)
			<-gate
		})
	}()
	<-started
	var once sync.Once
	release = func() {
		once.Do(func() { close(gate) })
		<-done
	}
	t.Cleanup(release)
	return release
}

// releaseAfter releases a held fill when the call under test returns,
// or after 300 ms if the call is waiting on the held fill itself.
func releaseAfter(release func(), call func()) {
	timer := time.AfterFunc(300*time.Millisecond, release)
	defer timer.Stop()
	call()
	release()
}

// A request made after an append gets post-append data, even while a
// fill of the same key that began before the append is still running:
// the held fill's pre-append answer is neither stored (its version is
// stale) nor handed to the later request, which computes its own.
// Explore answers are retired by every append, differentiate answers by
// a batch that adds full-text terms.
func TestRequestAfterAppendSeesAppend(t *testing.T) {
	ctx := context.Background()

	t.Run("explore", func(t *testing.T) {
		const query = "Columbus LCD"
		e := ingestTestEngine(dataset.EBiz())
		e.SetAnswerCache(64, 0)
		opts := DefaultExploreOptions()
		sn := top1(t, e, query)
		pre, err := e.exploreUncached(ctx, sn, opts)
		if err != nil {
			t.Fatal(err)
		}
		key, _ := ExploreCacheKey(sn, opts)
		release := holdFill(t, func(block func()) {
			e.explAnswers.Do(ctx, key, func(context.Context) (*Facets, bool, error) {
				block()
				return pre, true, nil
			})
		})

		row := []relation.Value{
			relation.Int(int64(dataset.EBizFactCount + 1)),
			relation.Int(1), // TransKey
			relation.Int(1), // ProductKey
			relation.Int(3),
			relation.Float(9.99),
		}
		if _, err := e.AppendFacts(ctx, [][]relation.Value{row}); err != nil {
			t.Fatal(err)
		}
		want, err := e.exploreUncached(ctx, sn, opts)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(want.Fingerprint(), pre.Fingerprint()) {
			t.Fatal("the appended row does not change the answer; the test lost its premise")
		}

		var got *Facets
		releaseAfter(release, func() { got, err = e.ExploreCtx(ctx, sn, opts) })
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Fingerprint(), want.Fingerprint()) {
			t.Error("an explore made after the append got the pre-append answer")
		}
	})

	t.Run("differentiate", func(t *testing.T) {
		const query = "Porto"
		e := noteMart(t)
		e.SetAnswerCache(64, 0)
		pre, err := e.differentiateRanked(ctx, query, Standard)
		if err != nil {
			t.Fatal(err)
		}
		release := holdFill(t, func(block func()) {
			e.diffAnswers.Do(ctx, diffAnswerKey(query, Standard), func(context.Context) ([]*StarNet, bool, error) {
				block()
				return pre, true, nil
			})
		})

		row := []relation.Value{relation.Int(1), relation.String("Porto harbour"), relation.Int(7)}
		res, err := e.AppendFacts(ctx, [][]relation.Value{row})
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.differentiateRanked(ctx, query, Standard)
		if err != nil {
			t.Fatal(err)
		}
		if res.NewTerms == 0 {
			t.Fatal("the batch added no full-text term; the test lost its premise")
		}
		if netsDigest(want) == netsDigest(pre) {
			t.Fatal("the batch does not change the answer; the test lost its premise")
		}

		var got []*StarNet
		releaseAfter(release, func() { got, err = e.DifferentiateCtx(ctx, query) })
		if err != nil {
			t.Fatal(err)
		}
		if netsDigest(got) != netsDigest(want) {
			t.Errorf("a differentiate made after the append got the pre-append answer:\n%s\nwant\n%s",
				netsDigest(got), netsDigest(want))
		}
	})
}
