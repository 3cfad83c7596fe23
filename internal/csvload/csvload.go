// Package csvload builds a KDAP warehouse from CSV files named by a
// dataset.Manifest (see there for the JSON format), so the engine can
// run over user data without writing Go. Each table of the manifest
// names its CSV file, relative to the manifest's directory.
//
// CSV files must carry a header row naming the columns (order may differ
// from the manifest); empty cells load as NULL.
package csvload

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"kdap/internal/dataset"
	"kdap/internal/relation"
)

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

// Load builds a resident warehouse from a manifest, resolving CSV
// paths relative to baseDir.
func Load(baseDir string, m *dataset.Manifest) (*dataset.Warehouse, error) {
	db := relation.NewDatabase(m.Name)
	for _, ts := range m.Tables {
		schema, err := ts.Schema()
		if err != nil {
			return nil, fmt.Errorf("csvload: %w", err)
		}
		t := relation.NewTable(schema)
		if err := loadRows(baseDir, ts, t); err != nil {
			return nil, err
		}
		if err := db.AddTable(t); err != nil {
			return nil, err
		}
	}
	wh, err := dataset.Assemble(db, m)
	if err != nil {
		return nil, fmt.Errorf("csvload: %w", err)
	}
	return wh, nil
}

// LoadDir is the convenience entry point: read <dir>/manifest.json and
// build the warehouse from the CSVs beside it.
func LoadDir(dir string) (*dataset.Warehouse, error) {
	m, err := dataset.ReadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	return Load(dir, m)
}

// Rows returns a fill function that appends the CSV rows of the
// manifest table named like t to t. Load fills resident tables with it;
// persist.Write takes it to stream a CSV mart into a warehouse
// directory.
func Rows(baseDir string, m *dataset.Manifest) func(t *relation.Table) error {
	return func(t *relation.Table) error {
		for _, ts := range m.Tables {
			if ts.Name == t.Name() {
				return loadRows(baseDir, ts, t)
			}
		}
		return fmt.Errorf("csvload: manifest has no table %s", t.Name())
	}
}

// loadRows appends the table's CSV rows to t in file order, one
// segment-sized batch at a time, so arbitrarily large files load
// holding one batch. A resident and a disk-backed table load alike.
func loadRows(baseDir string, ts dataset.TableSpec, t *relation.Table) error {
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
