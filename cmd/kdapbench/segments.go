package main

// The segments experiment measures the disk-backed segment layer at
// scale: it streams a scaled AW_ONLINE warehouse (1M and 10M facts)
// into segment files, then times a selective drill-down served entirely
// from disk through the byte-budgeted page cache — cold (page cache
// dropped before every run) and warm (pages resident). Alongside the
// latencies it records the skip profile (how many of the table's
// segments the drill never touched, on zone-map or Bloom evidence) and
// the process's peak RSS, the number that proves the 10M-fact warehouse
// was answered in bounded memory rather than materialized.
//
// `kdapbench -exp segments` pins the numbers into BENCH.json's
// "segments" section; the nightly gate re-runs the first (1M) scale and
// fails on a cold-drill latency regression, an RSS blowup, or a skip
// rate below the 50% floor.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"kdap/internal/experiments"
	"kdap/internal/persist"
	"kdap/internal/relation"
)

// segmentsBench is BENCH.json's "segments" section.
type segmentsBench struct {
	SegmentSize   int                  `json:"segment_size"`
	CacheBudgetMB int                  `json:"cache_budget_mb"`
	Scales        []segmentsScaleBench `json:"scales"`
}

// segmentsScaleBench is one fact-count point of the segments ladder.
type segmentsScaleBench struct {
	Facts    int    `json:"facts"`
	Segments int    `json:"segments"`
	Query    string `json:"query"`
	// SubspaceRows is the drill's result cardinality (sanity anchor:
	// the bound selects the top ~10% of the ingest-clustered SalesKey).
	SubspaceRows int `json:"subspace_rows"`
	// BuildSecs is the wall time to stream-generate the facts into
	// segment files (never materializing the table in memory).
	BuildSecs float64 `json:"build_secs"`
	// ColdDrillNs times differentiate-free SubspaceRows with both the
	// rows cache and the segment page cache purged before every run —
	// every byte the drill touches comes off disk. WarmDrillNs purges
	// only the rows cache, so pages are served from the budgeted LRU.
	ColdDrillNs int64 `json:"cold_drill_ns"`
	WarmDrillNs int64 `json:"warm_drill_ns"`
	// Skip profile of one cold drill: segments the scan proved
	// irrelevant from the manifest's Bloom filters or zone maps without
	// touching their pages, and SkippedPct = skipped / Segments — the
	// fraction of the table the drill never read.
	SkippedBloom int64   `json:"skipped_bloom"`
	SkippedZone  int64   `json:"skipped_zone"`
	SkippedPct   float64 `json:"skipped_pct"`
	// Paging profile of the same cold drill.
	PagedIn int64 `json:"paged_in"`
	Evicted int64 `json:"evicted"`
	// MaxRSSKB is the process's VmHWM after this scale completed. At
	// 10M facts the raw columns are ~25x larger than the 64 MiB page
	// budget, so a bounded number here is the disk-backed claim.
	MaxRSSKB int64 `json:"max_rss_kb"`
}

const (
	segBenchCacheMB = 64
	segBenchColdIt  = 3
	segBenchWarmIt  = 5
)

var segBenchScales = []int{1_000_000, 10_000_000}

// benchSegmentsScale builds the n-fact backed warehouse in a temp dir
// and measures the drill.
func benchSegmentsScale(n int) (segmentsScaleBench, error) {
	dir, err := os.MkdirTemp("", "kdapbench-segments-")
	if err != nil {
		return segmentsScaleBench{}, err
	}
	defer os.RemoveAll(dir)

	buildStart := time.Now()
	wh, store, err := persist.AWOnlineScaledBacked(dir, n, 0)
	if err != nil {
		return segmentsScaleBench{}, fmt.Errorf("segments bench: build %d facts: %w", n, err)
	}
	defer store.Close()
	buildSecs := time.Since(buildStart).Seconds()
	store.SetCacheBudget(segBenchCacheMB << 20)

	e := experiments.Engine(wh)
	query := fmt.Sprintf("Road Bikes SalesKey>%d", n/10*9)
	nets, err := e.Differentiate(query)
	if err != nil || len(nets) == 0 {
		return segmentsScaleBench{}, fmt.Errorf("segments bench: differentiate %q: %v (%d nets)", query, err, len(nets))
	}

	// One instrumented cold drill for the skip and paging profile.
	store.DropCache()
	e.InvalidateSubspaceRows()
	before, planBefore := store.Stats(), e.Executor().Stats()
	rows := e.SubspaceRows(nets[0])
	after, planAfter := store.Stats(), e.Executor().Stats()
	if len(rows) == 0 {
		return segmentsScaleBench{}, fmt.Errorf("segments bench: %q drill produced no rows", query)
	}
	nseg := relation.NumSegments(store.NumRows(), store.SegmentSize())
	// Zone skips are the planner's verdicts plus the store's own lookup
	// scans; Bloom skips only ever come from the latter.
	skippedZone := (planAfter.SegmentsSkippedZone - planBefore.SegmentsSkippedZone) + (after.SkippedZone - before.SkippedZone)
	skipped := (after.SkippedBloom - before.SkippedBloom) + skippedZone

	cold := timeMinNs(segBenchColdIt, func() {
		store.DropCache()
		e.InvalidateSubspaceRows()
		if len(e.SubspaceRows(nets[0])) != len(rows) {
			panic("segments bench: cold drill changed cardinality")
		}
	})
	warm := timeMinNs(segBenchWarmIt, func() {
		e.InvalidateSubspaceRows()
		if len(e.SubspaceRows(nets[0])) != len(rows) {
			panic("segments bench: warm drill changed cardinality")
		}
	})

	return segmentsScaleBench{
		Facts:        n,
		Segments:     nseg,
		Query:        query,
		SubspaceRows: len(rows),
		BuildSecs:    buildSecs,
		ColdDrillNs:  cold,
		WarmDrillNs:  warm,
		SkippedBloom: after.SkippedBloom - before.SkippedBloom,
		SkippedZone:  skippedZone,
		SkippedPct:   100 * float64(skipped) / float64(nseg),
		PagedIn:      after.PagedIn - before.PagedIn,
		Evicted:      after.Evicted - before.Evicted,
		MaxRSSKB:     vmHWMKB(),
	}, nil
}

func computeSegments(scales []int) (*segmentsBench, error) {
	out := &segmentsBench{
		SegmentSize:   relation.DefaultSegmentSize,
		CacheBudgetMB: segBenchCacheMB,
	}
	for _, n := range scales {
		sb, err := benchSegmentsScale(n)
		if err != nil {
			return nil, err
		}
		fmt.Printf("segments %8d facts: cold %8.1fms warm %8.1fms  skipped %d/%d segs (%.0f%%)  rss %d KB  (built in %.1fs)\n",
			sb.Facts, float64(sb.ColdDrillNs)/1e6, float64(sb.WarmDrillNs)/1e6,
			sb.SkippedBloom+sb.SkippedZone, sb.Segments, sb.SkippedPct, sb.MaxRSSKB, sb.BuildSecs)
		out.Scales = append(out.Scales, sb)
	}
	return out, nil
}

// segmentsJSON runs the segments ladder and pins it into BENCH.json's
// "segments" section, leaving every other section untouched.
func segmentsJSON() error {
	fresh, err := computeSegments(segBenchScales)
	if err != nil {
		return err
	}
	buf, err := os.ReadFile("BENCH.json")
	if err != nil {
		return fmt.Errorf("segments: read BENCH.json (run -exp bench first): %w", err)
	}
	var out benchFile
	if err := json.Unmarshal(buf, &out); err != nil {
		return fmt.Errorf("segments: parse BENCH.json: %w", err)
	}
	out.Segments = fresh
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH.json", append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH.json (segments section)")
	return nil
}

// nightlySegments gates the first (1M-fact) rung of the segments ladder
// against the pinned baseline: cold-drill latency within the shared 20%
// budget, peak RSS within 1.5x, and the skip rate at or above the 50%
// floor the layer was built to clear. The 10M rung stays pinned but is
// not re-run nightly — one core, one night. Runs before computeBench so
// VmHWM still reflects the segmented run rather than the resident
// warehouses the other benches load.
func nightlySegments(base *segmentsBench) ([]string, error) {
	if base == nil || len(base.Scales) == 0 {
		fmt.Println("segments: no baseline in BENCH.json, skipped")
		return nil, nil
	}
	const rssSlack = 1.5
	b := base.Scales[0]
	fresh, err := benchSegmentsScale(b.Facts)
	if err != nil {
		return nil, err
	}
	var failures []string
	ratio := float64(fresh.ColdDrillNs) / float64(b.ColdDrillNs)
	status := "ok"
	if ratio > nightlySlack {
		status = "FAIL"
		failures = append(failures, fmt.Sprintf("segments@%d: cold drill %dns vs baseline %dns (%.2fx > %.2fx budget)",
			b.Facts, fresh.ColdDrillNs, b.ColdDrillNs, ratio, nightlySlack))
	}
	fmt.Printf("segments@%d cold %12d ns   baseline %12d   %.2fx  %s\n",
		b.Facts, fresh.ColdDrillNs, b.ColdDrillNs, ratio, status)
	if b.MaxRSSKB > 0 && float64(fresh.MaxRSSKB) > float64(b.MaxRSSKB)*rssSlack {
		failures = append(failures, fmt.Sprintf("segments@%d: peak RSS %d KB vs baseline %d KB (> %.1fx ceiling)",
			b.Facts, fresh.MaxRSSKB, b.MaxRSSKB, rssSlack))
	}
	fmt.Printf("segments@%d rss  %12d KB   baseline %12d KB (ceiling %.1fx)\n",
		b.Facts, fresh.MaxRSSKB, b.MaxRSSKB, rssSlack)
	if fresh.SkippedPct < 50 {
		failures = append(failures, fmt.Sprintf("segments@%d: skip rate %.0f%% below the 50%% floor",
			b.Facts, fresh.SkippedPct))
	}
	fmt.Printf("segments@%d skip %11.0f %%    baseline %11.0f %% (floor 50%%)\n",
		b.Facts, fresh.SkippedPct, b.SkippedPct)
	return failures, nil
}

// timeMinNs runs fn iters times and returns the fastest wall time —
// the drill is seconds-scale at 10M facts, so the bench-style
// 200ms-per-block loop would cost minutes for no extra signal.
func timeMinNs(iters int, fn func()) int64 {
	var best int64
	for i := 0; i < iters; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start).Nanoseconds(); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// vmHWMKB reads the process's peak resident set (VmHWM) from
// /proc/self/status; 0 on platforms without procfs.
func vmHWMKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}
