// Package csvload assembles a KDAP warehouse from CSV files plus a JSON
// manifest, so the engine can run over user data without writing Go.
//
// The manifest declares each table's CSV file, column types, keys, and
// full-text flags, the fact table, and the dimension metadata:
//
//	{
//	  "name": "MyMart",
//	  "fact": "Sales",
//	  "factExtensions": [],
//	  "tables": [
//	    {"name": "Product", "file": "product.csv", "key": "ProductKey",
//	     "columns": [
//	       {"name": "ProductKey", "kind": "int"},
//	       {"name": "ProductName", "kind": "string", "fullText": true}
//	     ],
//	     "foreignKeys": []},
//	    ...
//	  ],
//	  "dimensions": [
//	    {"name": "Product", "tables": ["Product"],
//	     "hierarchies": [{"name": "Cat", "levels": [
//	        {"table": "Product", "attr": "Category"},
//	        {"table": "Product", "attr": "ProductName"}]}],
//	     "groupBy": [{"table": "Product", "attr": "Category"}]}
//	  ],
//	  "edgeLabels": [
//	    {"table": "Sales", "column": "BuyerKey", "role": "Buyer", "dimension": "Customer"}
//	  ]
//	}
//
// CSV files must carry a header row naming the columns (order may differ
// from the manifest); empty cells load as NULL.
package csvload

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"kdap/internal/dataset"
	"kdap/internal/fulltext"
	"kdap/internal/persist"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

// LoadOptions tune warehouse assembly beyond the manifest.
type LoadOptions struct {
	// SegmentDir, when non-empty, creates the fact table disk-backed
	// under this directory and appends its CSV rows there: rows never
	// materialize in memory, and scans page segments in under the
	// store's cache budget. Dimension tables stay resident.
	SegmentDir string
	// SegmentSize is the rows-per-segment for SegmentDir (power of two,
	// >= 64); zero selects relation.DefaultSegmentSize.
	SegmentSize int
}

// ColumnSpec declares one CSV column.
type ColumnSpec struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"` // string | int | float | bool
	FullText bool   `json:"fullText"`
}

// FKSpec declares a foreign key.
type FKSpec struct {
	Column    string `json:"column"`
	RefTable  string `json:"refTable"`
	RefColumn string `json:"refColumn"`
}

// TableSpec declares one table and its backing CSV file.
type TableSpec struct {
	Name        string       `json:"name"`
	File        string       `json:"file"`
	Key         string       `json:"key"`
	Columns     []ColumnSpec `json:"columns"`
	ForeignKeys []FKSpec     `json:"foreignKeys"`
}

// AttrSpec references a (table, attr) pair.
type AttrSpec struct {
	Table string `json:"table"`
	Attr  string `json:"attr"`
}

// HierarchySpec declares one hierarchy, most general level first.
type HierarchySpec struct {
	Name   string     `json:"name"`
	Levels []AttrSpec `json:"levels"`
}

// DimensionSpec declares one dimension.
type DimensionSpec struct {
	Name        string          `json:"name"`
	Tables      []string        `json:"tables"`
	Hierarchies []HierarchySpec `json:"hierarchies"`
	GroupBy     []AttrSpec      `json:"groupBy"`
}

// EdgeLabelSpec assigns a role to a foreign-key edge.
type EdgeLabelSpec struct {
	Table     string `json:"table"`
	Column    string `json:"column"`
	Role      string `json:"role"`
	Dimension string `json:"dimension"`
}

// Manifest is the root of the JSON configuration.
type Manifest struct {
	Name           string          `json:"name"`
	Fact           string          `json:"fact"`
	FactExtensions []string        `json:"factExtensions"`
	Tables         []TableSpec     `json:"tables"`
	Dimensions     []DimensionSpec `json:"dimensions"`
	EdgeLabels     []EdgeLabelSpec `json:"edgeLabels"`
	// Strict enables full referential-integrity validation after load.
	Strict bool `json:"strict"`
}

// parseKind maps a manifest kind name to a relation.Kind.
func parseKind(s string) (relation.Kind, error) {
	switch strings.ToLower(s) {
	case "string", "text":
		return relation.KindString, nil
	case "int", "integer":
		return relation.KindInt, nil
	case "float", "number", "real":
		return relation.KindFloat, nil
	case "bool", "boolean":
		return relation.KindBool, nil
	default:
		return 0, fmt.Errorf("csvload: unknown column kind %q", s)
	}
}

// parseCell converts one CSV cell to a typed value. Empty cells are NULL.
func parseCell(cell string, kind relation.Kind) (relation.Value, error) {
	if cell == "" {
		return relation.Null(), nil
	}
	switch kind {
	case relation.KindString:
		return relation.String(cell), nil
	case relation.KindInt:
		i, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return relation.Value{}, err
		}
		return relation.Int(i), nil
	case relation.KindFloat:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return relation.Value{}, err
		}
		return relation.Float(f), nil
	case relation.KindBool:
		b, err := strconv.ParseBool(cell)
		if err != nil {
			return relation.Value{}, err
		}
		return relation.Bool(b), nil
	default:
		return relation.Value{}, fmt.Errorf("csvload: unsupported kind")
	}
}

// LoadManifest reads and parses a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("csvload: parse %s: %w", path, err)
	}
	return &m, nil
}

// Load builds a warehouse from a manifest, resolving CSV paths relative
// to baseDir. Every table is resident.
func Load(baseDir string, m *Manifest) (*dataset.Warehouse, error) {
	wh, _, err := LoadWithOptions(baseDir, m, LoadOptions{})
	return wh, err
}

// LoadWithOptions builds a warehouse from a manifest. With
// LoadOptions.SegmentDir set, the fact table streams to disk segments
// and the returned Store exposes its paging counters and cache-budget
// knob; otherwise the Store is nil.
func LoadWithOptions(baseDir string, m *Manifest, opts LoadOptions) (*dataset.Warehouse, *persist.Store, error) {
	if m.Fact == "" {
		return nil, nil, fmt.Errorf("csvload: manifest has no fact table")
	}
	db := relation.NewDatabase(m.Name)
	var store *persist.Store
	ok := false
	defer func() {
		if !ok && store != nil {
			store.Close()
		}
	}()
	for _, ts := range m.Tables {
		schema, err := tableSchema(ts)
		if err != nil {
			return nil, nil, err
		}
		var t *relation.Table
		if opts.SegmentDir != "" && ts.Name == m.Fact {
			if t, store, err = persist.CreateBackedTable(opts.SegmentDir, schema, opts.SegmentSize); err != nil {
				return nil, nil, err
			}
		} else {
			t = relation.NewTable(schema)
		}
		if err := loadRows(baseDir, ts, t); err != nil {
			return nil, nil, err
		}
		if err := db.AddTable(t); err != nil {
			return nil, nil, err
		}
	}
	if store != nil {
		if err := store.Flush(); err != nil {
			return nil, nil, err
		}
	}
	if err := db.Validate(m.Strict); err != nil {
		return nil, nil, fmt.Errorf("csvload: %w", err)
	}

	g := schemagraph.New(db, m.Fact)
	g.AddFactExtension(m.FactExtensions...)
	for _, ds := range m.Dimensions {
		d := &schemagraph.Dimension{Name: ds.Name, Tables: ds.Tables}
		for _, hs := range ds.Hierarchies {
			h := schemagraph.Hierarchy{Name: hs.Name}
			for _, lv := range hs.Levels {
				h.Levels = append(h.Levels, schemagraph.AttrRef{Table: lv.Table, Attr: lv.Attr})
			}
			d.Hierarchies = append(d.Hierarchies, h)
		}
		for _, gb := range ds.GroupBy {
			d.GroupBy = append(d.GroupBy, schemagraph.AttrRef{Table: gb.Table, Attr: gb.Attr})
		}
		if err := g.AddDimension(d); err != nil {
			return nil, nil, err
		}
	}
	if err := g.Build(); err != nil {
		return nil, nil, err
	}
	for _, el := range m.EdgeLabels {
		g.LabelEdge(el.Table, el.Column, el.Role, el.Dimension)
	}

	db.Freeze()
	ix := fulltext.NewIndex()
	ix.IndexDatabase(db)
	ix.Freeze()
	ok = true
	return &dataset.Warehouse{DB: db, Graph: g, Index: ix}, store, nil
}

// LoadDir is the convenience entry point: read <dir>/manifest.json and
// build the warehouse from the CSVs beside it.
func LoadDir(dir string) (*dataset.Warehouse, error) {
	m, err := LoadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	return Load(dir, m)
}

// tableSchema builds the relation schema a table spec declares.
func tableSchema(ts TableSpec) (*relation.Schema, error) {
	cols := make([]relation.Column, len(ts.Columns))
	for i, cs := range ts.Columns {
		k, err := parseKind(cs.Kind)
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", ts.Name, err)
		}
		cols[i] = relation.Column{Name: cs.Name, Kind: k, FullText: cs.FullText}
	}
	fks := make([]relation.ForeignKey, len(ts.ForeignKeys))
	for i, fk := range ts.ForeignKeys {
		fks[i] = relation.ForeignKey{Column: fk.Column, RefTable: fk.RefTable, RefColumn: fk.RefColumn}
	}
	return relation.NewSchema(ts.Name, cols, ts.Key, fks)
}

// loadRows appends the table's CSV rows to t in file order, one
// segment-sized batch at a time, so arbitrarily large files load
// holding one batch. A resident and a disk-backed table load alike.
func loadRows(baseDir string, ts TableSpec, t *relation.Table) error {
	cols := t.Schema().Columns
	f, err := os.Open(filepath.Join(baseDir, ts.File))
	if err != nil {
		return fmt.Errorf("table %s: %w", ts.Name, err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.TrimLeadingSpace = true

	header, err := r.Read()
	if err != nil {
		return fmt.Errorf("table %s: header: %w", ts.Name, err)
	}
	// Map manifest column order onto CSV header order.
	colPos := make([]int, len(cols))
	for i, c := range cols {
		colPos[i] = -1
		for j, h := range header {
			if h == c.Name {
				colPos[i] = j
			}
		}
		if colPos[i] < 0 {
			return fmt.Errorf("table %s: CSV %s lacks column %q", ts.Name, ts.File, c.Name)
		}
	}
	ba := relation.NewBatchAppender(t)
	line := 1
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("table %s line %d: %w", ts.Name, line, err)
		}
		line++
		row := make([]relation.Value, len(cols))
		for i, c := range cols {
			v, err := parseCell(rec[colPos[i]], c.Kind)
			if err != nil {
				return fmt.Errorf("table %s line %d column %s: %w", ts.Name, line, c.Name, err)
			}
			row[i] = v
		}
		if err := ba.Append(row); err != nil {
			return fmt.Errorf("table %s, batch ending line %d: %w", ts.Name, line, err)
		}
	}
	if err := ba.Flush(); err != nil {
		return fmt.Errorf("table %s, batch ending line %d: %w", ts.Name, line, err)
	}
	return nil
}
