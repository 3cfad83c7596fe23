// Package persist keeps a warehouse on disk as a directory:
// DIR/manifest.json (a dataset.Manifest without file names) beside one
// segment directory per table, DIR/<table>/, in the KDAPSEG1 format
// (segment.go). Write fills the tables through appends to empty backed
// tables, so a source streams; Open serves the fact table paged and
// reads the other tables back into memory. The schema graph and the
// full-text index are rebuilt on open by dataset.Assemble.
package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"kdap/internal/dataset"
	"kdap/internal/relation"
)

// warehouseManifest names the manifest of a warehouse directory.
const warehouseManifest = "manifest.json"

// Write lays out a warehouse directory at dir for m: each table's
// segment directory (segSize rows per segment; 0 selects
// relation.DefaultSegmentSize) is created empty, filled by fill through
// appends and closed, then m is written as manifest.json without file
// names. The manifest goes last and is replaced by a rename, so dir
// holds a warehouse only once every table is durable.
func Write(dir string, m *dataset.Manifest, segSize int, fill func(*relation.Table) error) error {
	if err := os.Remove(filepath.Join(dir, warehouseManifest)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	out := *m
	out.Tables = append([]dataset.TableSpec(nil), m.Tables...)
	for i, ts := range out.Tables {
		schema, err := ts.Schema()
		if err != nil {
			return err
		}
		tdir, err := tableDir(dir, ts.Name)
		if err != nil {
			return err
		}
		t, st, err := CreateBackedTable(tdir, schema, segSize)
		if err != nil {
			return err
		}
		err = fill(t)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("persist: table %s: %w", ts.Name, err)
		}
		out.Tables[i].File = ""
	}
	raw, err := out.Encode()
	if err != nil {
		return err
	}
	return writeAtomic(dir, warehouseManifest, raw)
}

// Save writes the built warehouse wh to dir (see Write).
func Save(dir string, wh *dataset.Warehouse, segSize int) error {
	return Write(dir, dataset.ManifestOf(wh), segSize, func(t *relation.Table) error {
		return copyRows(t, wh.DB.Table(t.Name()))
	})
}

// Open opens the warehouse directory at dir. The fact table is served
// paged: the returned Store is its pager, which the caller keeps to set
// the cache budget, read SegStats and Close, which makes appended rows
// durable. Every other table is read back into a store that never
// pages, because join hops look dimension rows up per query and only
// such a store keeps the hash index that serves them. Opening reads no
// sealed fact segment.
func Open(dir string) (*dataset.Warehouse, *Store, error) {
	m, err := dataset.ReadManifest(filepath.Join(dir, warehouseManifest))
	if err != nil {
		return nil, nil, err
	}
	var fact *Store
	wh, err := func() (*dataset.Warehouse, error) {
		db := relation.NewDatabase(m.Name)
		for _, ts := range m.Tables {
			schema, err := ts.Schema()
			if err != nil {
				return nil, err
			}
			tdir, err := tableDir(dir, ts.Name)
			if err != nil {
				return nil, err
			}
			t, st, err := OpenBackedTable(tdir, schema)
			if err != nil {
				return nil, err
			}
			if ts.Name == m.Fact {
				fact = st
			} else {
				paged := t
				t = relation.NewTable(schema)
				err = copyRows(t, paged)
				if cerr := st.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return nil, err
				}
			}
			if err := db.AddTable(t); err != nil {
				return nil, err
			}
		}
		return dataset.Assemble(db, m)
	}()
	if err != nil {
		if fact != nil {
			fact.closeFiles()
		}
		return nil, nil, fmt.Errorf("persist: open %s: %w", dir, err)
	}
	return wh, fact, nil
}

// AWOnlineScaledBacked writes the scaled AW_ONLINE warehouse of n facts
// to the directory dir and opens it: the generated fact rows stream
// into their segment files one batch at a time, so the fact table never
// materializes in memory. segSize is as in Write.
func AWOnlineScaledBacked(dir string, n, segSize int) (*dataset.Warehouse, *Store, error) {
	b := dataset.NewAWOnlineScaledBuild(n)
	// Finished over an empty fact table, the build describes the
	// warehouse and holds the dimension rows.
	dims, err := b.FinishPartial(relation.NewTable(b.FactSchema()))
	if err != nil {
		return nil, nil, err
	}
	err = Write(dir, dataset.ManifestOf(dims), segSize, func(t *relation.Table) error {
		if t.Name() != dims.Graph.FactTable() {
			return copyRows(t, dims.DB.Table(t.Name()))
		}
		ba := relation.NewBatchAppender(t)
		if err := b.GenerateFacts(ba.Append); err != nil {
			return err
		}
		return ba.Flush()
	})
	if err != nil {
		return nil, nil, err
	}
	return Open(dir)
}

// tableDir is the segment directory of table name under dir; a name
// that is not one plain path element is refused.
func tableDir(dir, name string) (string, error) {
	if name == "" || name == "." || name == ".." || name == warehouseManifest || strings.ContainsAny(name, `/\`) {
		return "", fmt.Errorf("persist: table name %q cannot name a directory", name)
	}
	return filepath.Join(dir, name), nil
}

// copyRows appends every row of src to dst in segment-sized batches.
func copyRows(dst, src *relation.Table) error {
	ba := relation.NewBatchAppender(dst)
	for id := 0; id < src.Len(); id++ {
		if err := ba.Append(src.Row(id)); err != nil {
			return err
		}
	}
	return ba.Flush()
}

// writeAtomic replaces dir/name with data: written to a temporary file
// and synced, then renamed over the old file, so a crash leaves either
// the old file or the new one. The directory is synced after the
// rename, so a crash after writeAtomic returns leaves the new one.
func writeAtomic(dir, name string, data []byte) error {
	f, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return syncDir(dir)
}

// syncDir makes the entries of dir durable: a rename is on disk only
// once its directory is. A variable so tests can count the syncs.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
