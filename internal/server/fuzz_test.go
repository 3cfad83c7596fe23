package server

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/relation"
)

// FuzzIngestBody feeds arbitrary /api/ingest bodies through the
// handler's decoding (the request JSON, then decodeFactRows and
// decodeValue) against the AW_ONLINE fact schema. Decoding must never
// panic; a batch it accepts must decode to identical values again after
// a canonical JSON re-encode; and Table.AppendFacts must land such a
// batch whole on a scratch table, or refuse it leaving the table's
// length unchanged.
func FuzzIngestBody(f *testing.F) {
	schema := dataset.AWOnline().DB.Table("FactInternetSales").Schema()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ingestRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		rows, err := decodeFactRows(schema, req.Rows)
		if err != nil {
			return
		}

		canonical := make([][]json.RawMessage, len(rows))
		for i, row := range rows {
			canonical[i] = make([]json.RawMessage, len(row))
			for j, v := range row {
				canonical[i][j] = canonicalJSON(t, v)
			}
		}
		again, err := decodeFactRows(schema, canonical)
		if err != nil {
			t.Fatalf("canonical re-encode of an accepted batch refused: %v", err)
		}
		for i, row := range rows {
			for j, v := range row {
				if !sameValue(again[i][j], v) {
					t.Fatalf("row %d column %d: %#v re-decodes as %#v", i, j, v, again[i][j])
				}
			}
		}

		tab := relation.NewTable(schema)
		start, err := tab.AppendFacts(rows)
		if err != nil {
			if tab.Len() != 0 {
				t.Fatalf("refused batch left %d rows: %v", tab.Len(), err)
			}
			return
		}
		if start != 0 || tab.Len() != len(rows) {
			t.Fatalf("accepted batch of %d rows landed at %d, table holds %d", len(rows), start, tab.Len())
		}
		for i, row := range rows {
			for j, v := range row {
				if got := tab.Value(i, schema.Columns[j].Name); !sameValue(got, v) {
					t.Fatalf("row %d column %d: stored %#v reads back %#v", i, j, v, got)
				}
			}
		}
	})
}

// canonicalJSON encodes v as the JSON value a client would send for it.
func canonicalJSON(t *testing.T, v relation.Value) json.RawMessage {
	var x any
	switch v.Kind() {
	case relation.KindInt:
		x = v.IntVal()
	case relation.KindFloat:
		x = v.FloatVal()
	case relation.KindString:
		x = v.Str()
	case relation.KindBool:
		x = v.BoolVal()
	}
	b, err := json.Marshal(x)
	if err != nil {
		t.Fatalf("encode %#v: %v", v, err)
	}
	return b
}

// sameValue is kind and bit equality: -0 and 0 differ.
func sameValue(a, b relation.Value) bool {
	if a.Kind() == relation.KindFloat && b.Kind() == relation.KindFloat {
		return math.Float64bits(a.FloatVal()) == math.Float64bits(b.FloatVal())
	}
	return a.Kind() == b.Kind() && a.Equal(b)
}
