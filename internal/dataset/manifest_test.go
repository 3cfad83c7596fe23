package dataset

import (
	"bytes"
	"testing"

	"kdap/internal/relation"
)

// FuzzWarehouseManifest feeds arbitrary bytes to the warehouse manifest
// decoder, which reads manifest.json off disk for CSV marts and
// warehouse directories alike. It must never panic; a manifest it
// accepts must re-encode canonically (its encoding decodes and encodes
// to the same bytes); and assembling a warehouse over empty tables of
// an accepted manifest either succeeds or returns an error.
func FuzzWarehouseManifest(f *testing.F) {
	f.Add([]byte(`{"name": "Mini", "fact": "F", "strict": true,
  "tables": [
    {"name": "P", "file": "p.csv", "key": "K", "columns": [
      {"name": "K", "kind": "INTEGER"}, {"name": "Name", "kind": "text", "fullText": true}]},
    {"name": "F", "file": "f.csv", "columns": [
      {"name": "K", "kind": "int"}, {"name": "Amount", "kind": "real"}, {"name": "Ok", "kind": "boolean"}],
     "foreignKeys": [{"column": "K", "refTable": "P", "refColumn": "K"}]}
  ],
  "factExtensions": ["P"],
  "dimensions": [
    {"name": "Product", "tables": ["P"], "groupBy": [{"table": "P", "attr": "Name"}],
     "hierarchies": [{"name": "H", "levels": [{"table": "P", "attr": "Name"}, {"table": "Q", "attr": "X"}]}]}
  ],
  "edgeLabels": [{"table": "F", "column": "K", "role": "Item", "dimension": "Product"}]
}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"tables": [{"name": "T", "columns": [{"name": "C"}]}], "fact": "T"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted manifest does not encode: %v", err)
		}
		again, err := decodeManifest(enc)
		if err != nil {
			t.Fatalf("canonical form does not decode: %v\n%s", err, enc)
		}
		if enc2, err := again.Encode(); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not canonical (%v):\n%s\n%s", err, enc, enc2)
		}
		db := relation.NewDatabase(m.Name)
		for _, ts := range m.Tables {
			schema, err := ts.Schema()
			if err != nil {
				return
			}
			if err := db.AddTable(relation.NewTable(schema)); err != nil {
				return
			}
		}
		_, _ = Assemble(db, m)
	})
}
