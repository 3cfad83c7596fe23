package persist

import (
	"kdap/internal/dataset"
	"kdap/internal/fulltext"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

// BackedWarehouse appends wh's fact rows to a new segment directory
// under dir (segSize rows per segment; 0 selects
// relation.DefaultSegmentSize) and returns a warehouse identical to wh
// except that fact-column reads page segments in from disk. Dimension
// tables are shared with wh (they are immutable once frozen); the
// schema graph and full-text index are rebuilt around the backed fact,
// so term segment lists flow into the new index's skip hints. The
// source warehouse is untouched — keeping both alive gives tests a
// resident oracle next to the disk-backed subject.
func BackedWarehouse(dir string, wh *dataset.Warehouse, segSize int) (*dataset.Warehouse, *Store, error) {
	factName := wh.Graph.FactTable()
	fact := wh.DB.Table(factName)
	bfact, store, err := fillBacked(dir, fact.Schema(), segSize, func(emit func([]relation.Value) error) error {
		for id := 0; id < fact.Len(); id++ {
			if err := emit(fact.Row(id)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	db := relation.NewDatabase(wh.DB.Name())
	for _, name := range wh.DB.TableNames() {
		t := wh.DB.Table(name)
		if name == factName {
			t = bfact
		}
		if err := db.AddTable(t); err != nil {
			return nil, nil, err
		}
	}
	g := schemagraph.New(db, factName)
	g.SetMaxHops(wh.Graph.MaxHops())
	g.AddFactExtension(wh.Graph.FactExtensions()...)
	for _, d := range wh.Graph.Dimensions() {
		if err := g.AddDimension(d); err != nil {
			return nil, nil, err
		}
	}
	if err := g.Build(); err != nil {
		return nil, nil, err
	}
	for _, el := range wh.Graph.EdgeLabels() {
		g.LabelEdge(el.Table, el.Column, el.Role, el.Dimension)
	}
	db.Freeze()
	ix := fulltext.NewIndex()
	ix.IndexDatabase(db)
	ix.Freeze()
	return &dataset.Warehouse{DB: db, Graph: g, Index: ix}, store, nil
}

// AWOnlineScaledBacked builds the scaled AW_ONLINE warehouse with its
// fact table disk-backed: generated rows are appended to an empty
// segment directory under dir one segment-sized batch at a time (zone
// maps, Bloom filters, and term segment lists accumulate as segments
// seal — the fact table never materializes in memory), and the
// warehouse's fact table pages segments in on demand under the store's
// cache budget. segSize 0 selects relation.DefaultSegmentSize. The
// returned Store exposes the skip/paging counters and the cache-budget
// knob.
func AWOnlineScaledBacked(dir string, n, segSize int) (*dataset.Warehouse, *Store, error) {
	b := dataset.NewAWOnlineScaledBuild(n)
	fact, store, err := fillBacked(dir, b.FactSchema(), segSize, b.GenerateFacts)
	if err != nil {
		return nil, nil, err
	}
	wh, err := b.Finish(fact)
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	return wh, store, nil
}

// fillBacked creates an empty backed table under dir and appends every
// row gen emits to it in segment-sized batches, then flushes the store.
func fillBacked(dir string, schema *relation.Schema, segSize int, gen func(emit func([]relation.Value) error) error) (*relation.Table, *Store, error) {
	t, store, err := CreateBackedTable(dir, schema, segSize)
	if err != nil {
		return nil, nil, err
	}
	ba := relation.NewBatchAppender(t)
	if err = gen(ba.Append); err == nil {
		if err = ba.Flush(); err == nil {
			err = store.Flush()
		}
	}
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	return t, store, nil
}
