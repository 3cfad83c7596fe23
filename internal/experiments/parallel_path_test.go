package experiments

import (
	"runtime"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/kdapcore"
	"kdap/internal/workload"
)

// The bench workload must actually exercise the striped kernel when
// cores are available: AW_ONLINE's fact table (60k rows) sits above the
// factory threshold, so full-table scans — the background side of every
// explore — stripe. This pins the satellite fix for the old
// ParallelScans:0 snapshot, where the threshold was set so high the
// parallel path never ran on any workload query.
func TestBenchWorkloadTakesParallelPath(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	e := Engine(dataset.AWOnline())
	before := e.Executor().Stats()
	q := workload.AWOnlineQueries()[0]
	nets, err := e.Differentiate(q.Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) == 0 {
		t.Fatalf("no interpretations for %q", q.Text)
	}
	if _, err := e.Explore(nets[0], kdapcore.DefaultExploreOptions()); err != nil {
		t.Fatal(err)
	}
	after := e.Executor().Stats()
	if after.ParallelScans <= before.ParallelScans {
		t.Fatalf("explore of %q at GOMAXPROCS=4 ran no parallel scans (serial %d->%d)",
			q.Text, before.SerialScans, after.SerialScans)
	}
}
