package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"kdap/internal/fulltext"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

// Manifest is the JSON form of a warehouse's metadata: its tables with
// their columns and keys, the fact table, the dimensions and the edge
// labels.
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
// A CSV mart (internal/csvload) names each table's CSV file; a
// warehouse directory (internal/persist) keeps the manifest without
// file names beside one segment directory per table. Either way
// Assemble builds the warehouse from it.
type Manifest struct {
	Name           string                  `json:"name"`
	Fact           string                  `json:"fact"`
	FactExtensions []string                `json:"factExtensions"`
	Tables         []TableSpec             `json:"tables"`
	Dimensions     []schemagraph.Dimension `json:"dimensions"`
	EdgeLabels     []schemagraph.EdgeLabel `json:"edgeLabels"`
	// Strict has Assemble check every foreign-key value, not just that
	// the referenced columns exist.
	Strict bool `json:"strict"`
}

// TableSpec declares one table. File names its CSV file in a CSV mart
// and is empty in a warehouse directory.
type TableSpec struct {
	Name        string                `json:"name"`
	File        string                `json:"file,omitempty"`
	Key         string                `json:"key"`
	Columns     []relation.Column     `json:"columns"`
	ForeignKeys []relation.ForeignKey `json:"foreignKeys"`
}

// Schema returns the relation schema the spec declares.
func (ts TableSpec) Schema() (*relation.Schema, error) {
	return relation.NewSchema(ts.Name, ts.Columns, ts.Key, ts.ForeignKeys)
}

// ReadManifest reads and decodes a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := decodeManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// decodeManifest decodes a manifest, refusing unknown fields.
func decodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("dataset: manifest: %w", err)
	}
	return &m, nil
}

// Encode renders the manifest as indented JSON, the one form a
// warehouse directory stores.
func (m *Manifest) Encode() ([]byte, error) { return json.MarshalIndent(m, "", "  ") }

// ManifestOf describes a built warehouse; its tables carry no file.
func ManifestOf(wh *Warehouse) *Manifest {
	m := &Manifest{
		Name:           wh.DB.Name(),
		Fact:           wh.Graph.FactTable(),
		FactExtensions: wh.Graph.FactExtensions(),
		EdgeLabels:     wh.Graph.EdgeLabels(),
	}
	for _, name := range wh.DB.TableNames() {
		s := wh.DB.Table(name).Schema()
		m.Tables = append(m.Tables, TableSpec{Name: name, Key: s.Key, Columns: s.Columns, ForeignKeys: s.ForeignKeys})
	}
	for _, d := range wh.Graph.Dimensions() {
		m.Dimensions = append(m.Dimensions, *d)
	}
	return m
}

// Assemble completes a warehouse over db, which holds the manifest's
// tables: it validates the foreign keys (every value under Strict),
// builds the schema graph from the dimensions and edge labels, and
// hands the database to NewWarehouse.
func Assemble(db *relation.Database, m *Manifest) (*Warehouse, error) {
	if m.Fact == "" {
		return nil, fmt.Errorf("dataset: manifest has no fact table")
	}
	if err := db.Validate(m.Strict); err != nil {
		return nil, err
	}
	g := schemagraph.New(db, m.Fact)
	g.AddFactExtension(m.FactExtensions...)
	for _, d := range m.Dimensions {
		if err := g.AddDimension(&d); err != nil {
			return nil, err
		}
	}
	if err := g.Build(); err != nil {
		return nil, err
	}
	for _, el := range m.EdgeLabels {
		g.LabelEdge(el.Table, el.Column, el.Role, el.Dimension)
	}
	return NewWarehouse(db, g), nil
}

// NewWarehouse bundles db with its built graph: it freezes the database
// for concurrent reads and indexes every full-text column.
func NewWarehouse(db *relation.Database, g *schemagraph.Graph) *Warehouse {
	db.Freeze()
	ix := fulltext.NewIndex()
	ix.IndexDatabase(db)
	ix.Freeze()
	return &Warehouse{DB: db, Graph: g, Index: ix}
}
