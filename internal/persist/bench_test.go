package persist

import (
	"testing"

	"kdap/internal/dataset"
)

func BenchmarkSave(b *testing.B) {
	wh := dataset.EBiz()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Save(b.TempDir(), wh, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	if err := Save(dir, dataset.EBiz(), 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, store, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		store.Close()
	}
}
