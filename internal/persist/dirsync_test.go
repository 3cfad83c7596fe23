package persist

import (
	"path/filepath"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/relation"
)

// countDirSyncs swaps syncDir for a wrapper that counts the syncs of
// each directory, and restores it when the test ends.
func countDirSyncs(t *testing.T) map[string]int {
	t.Helper()
	syncs := map[string]int{}
	orig := syncDir
	syncDir = func(dir string) error {
		syncs[filepath.Clean(dir)]++
		return orig(dir)
	}
	t.Cleanup(func() { syncDir = orig })
	return syncs
}

// A manifest rename is durable only once its directory is synced:
// every Store.Flush that writes a manifest syncs the table directory
// once, and persist.Write syncs the warehouse directory once, after
// its manifest.
func TestManifestRenameSyncsDirectory(t *testing.T) {
	t.Run("flush", func(t *testing.T) {
		syncs := countDirSyncs(t)
		tab := segTestTable(t, 300)
		dir := t.TempDir()
		bt, store, err := CreateBackedTable(dir, tab.Schema(), 64)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if syncs[dir] != 1 {
			t.Fatalf("create: %d syncs of the table directory, want 1", syncs[dir])
		}
		for round, rows := range [][2]int{{0, 200}, {200, 300}} {
			ba := relation.NewBatchAppender(bt)
			for id := rows[0]; id < rows[1]; id++ {
				if err := ba.Append(tab.Row(id)); err != nil {
					t.Fatal(err)
				}
			}
			if err := ba.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := store.Flush(); err != nil {
				t.Fatal(err)
			}
			if want := round + 2; syncs[dir] != want {
				t.Fatalf("flush %d: %d syncs of the table directory, want %d", round+1, syncs[dir], want)
			}
		}
		if err := store.Flush(); err != nil {
			t.Fatal(err)
		}
		if syncs[dir] != 3 {
			t.Fatalf("a flush with nothing appended synced: %d syncs, want 3", syncs[dir])
		}
	})

	t.Run("write", func(t *testing.T) {
		syncs := countDirSyncs(t)
		wh := dataset.EBiz()
		dir := t.TempDir()
		if err := Save(dir, wh, 0); err != nil {
			t.Fatal(err)
		}
		if syncs[dir] != 1 {
			t.Fatalf("%d syncs of the warehouse directory, want 1 after its manifest", syncs[dir])
		}
		m := dataset.ManifestOf(wh)
		for _, ts := range m.Tables {
			tdir := filepath.Join(dir, ts.Name)
			// One for the created manifest, one for the closing flush.
			if syncs[tdir] != 2 {
				t.Errorf("table %s: %d directory syncs, want 2", ts.Name, syncs[tdir])
			}
		}
	})
}
