package experiments

import (
	"context"
	"fmt"
	"strings"

	"kdap/internal/dataset"
	"kdap/internal/kdapcore"
)

// Table1Query is the §6.2 walkthrough query.
const Table1Query = "California Mountain Bikes"

// Table1 reproduces the paper's Table 1: the top-k star nets returned for
// "California Mountain Bikes" on AW_ONLINE, rendered one line per net
// with hit groups and the ranking score.
func Table1(topK int) ([]string, []*kdapcore.StarNet, error) {
	e := Engine(dataset.AWOnline())
	nets, err := e.DifferentiateCtx(context.Background(), Table1Query)
	if err != nil {
		return nil, nil, err
	}
	if len(nets) > topK {
		nets = nets[:topK]
	}
	lines := make([]string, 0, len(nets))
	for _, sn := range nets {
		lines = append(lines, sn.String())
	}
	return lines, nets, nil
}

// Table2 reproduces the paper's Table 2: the analyst picks the top star
// net of Table 1 and the system renders the Product dimension's facets —
// the promoted ProductSubCategory entry plus the top-ranked group-by
// attributes with their organized instances (DealerPrice as merged
// numeric ranges, ModelName, Color as categories).
func Table2() (*kdapcore.Facets, []string, error) {
	e := Engine(dataset.AWOnline())
	nets, err := e.DifferentiateCtx(context.Background(), Table1Query)
	if err != nil {
		return nil, nil, err
	}
	if len(nets) == 0 {
		return nil, nil, fmt.Errorf("no star nets for %q", Table1Query)
	}
	opts := kdapcore.DefaultExploreOptions()
	opts.TopKAttrs = 3
	opts.TopKInstances = 4
	opts.DisplayIntervals = 3 // Table 2 shows three DealerPrice ranges
	f, err := e.ExploreCtx(context.Background(), nets[0], opts)
	if err != nil {
		return nil, nil, err
	}
	var lines []string
	for _, d := range f.Dimensions {
		if d.Dimension != "Product" {
			continue
		}
		for _, a := range d.Attributes {
			tag := ""
			if a.Promoted {
				tag = " (promoted)"
			}
			lines = append(lines, fmt.Sprintf("%s%s", a.Attr.Attr, tag))
			for _, inst := range a.Instances {
				lines = append(lines, fmt.Sprintf("    %-28s %12.2f", inst.Label, inst.Aggregate))
			}
		}
	}
	if len(lines) == 0 {
		return nil, nil, fmt.Errorf("no Product dimension facets")
	}
	return f, lines, nil
}

// FormatRankCurves renders Figure 4's data as an aligned text table.
func FormatRankCurves(curves []RankCurve) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %6s %6s %6s %6s %6s  %s\n", "method", "top-1", "top-2", "top-3", "top-4", "top-5", "worst query")
	for _, c := range curves {
		fmt.Fprintf(&b, "%-22s %5.0f%% %5.0f%% %5.0f%% %5.0f%% %5.0f%%  %q@%d\n",
			c.Method, c.CumulativePct[0], c.CumulativePct[1], c.CumulativePct[2],
			c.CumulativePct[3], c.CumulativePct[4], c.WorstQuery, c.WorstRank)
	}
	return b.String()
}

// FormatBucketSweeps renders Figure 5/6 data as an aligned text table.
func FormatBucketSweeps(results []BucketSweepResult) string {
	var b strings.Builder
	if len(results) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "%-36s", "attribute (rollup)")
	for _, n := range results[0].Buckets {
		fmt.Fprintf(&b, " %7db", n)
	}
	fmt.Fprintf(&b, "  cases\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%-36s", r.Label)
		for _, e := range r.ErrPct {
			fmt.Fprintf(&b, " %7.2f%%", e)
		}
		fmt.Fprintf(&b, "  %5d\n", r.Cases)
	}
	return b.String()
}

// FormatAnnealCurves renders Figure 7/8 data as an aligned text table.
func FormatAnnealCurves(results []AnnealCurveResult) string {
	var b strings.Builder
	if len(results) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "%-42s %2s", "case", "K")
	for _, n := range results[0].Iterations {
		fmt.Fprintf(&b, " %6d", n)
	}
	b.WriteString("\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%-42s %2d", r.Label, r.K)
		for _, e := range r.ErrPct {
			fmt.Fprintf(&b, " %5.2f%%", e)
		}
		b.WriteString("\n")
	}
	return b.String()
}
