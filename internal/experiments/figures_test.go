package experiments

import (
	"context"
	"strings"
	"testing"

	"kdap/internal/dataset"
)

// Table 1's headline claim: the correct interpretation — California the
// state × Mountain Bikes the subcategory — is ranked first, and the
// competing interpretations (the street address, the Mountain products ×
// Bikes category) appear among the candidates.
func TestTable1(t *testing.T) {
	lines, nets, err := Table1(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) != 3 {
		t.Fatalf("nets = %d", len(nets))
	}
	for _, l := range lines {
		t.Log(l)
	}
	top := nets[0].DomainSignature()
	if !strings.Contains(top, "DimGeography.StateProvinceName") ||
		!strings.Contains(top, "DimProductSubcategory.SubcategoryName") {
		t.Errorf("top net is not state × subcategory: %s", top)
	}
	// Scores descend.
	if !(nets[0].Score >= nets[1].Score && nets[1].Score >= nets[2].Score) {
		t.Error("scores not sorted")
	}
	// The street-address interpretation must exist somewhere in the full list.
	e := Engine(dataset.AWOnline())
	all, _ := e.DifferentiateCtx(context.Background(), Table1Query)
	var sawAddr, sawProdCat bool
	for _, sn := range all {
		sig := sn.DomainSignature()
		if strings.Contains(sig, "DimCustomer.AddressLine1") {
			sawAddr = true
		}
		if strings.Contains(sig, "DimProduct.EnglishProductName") &&
			strings.Contains(sig, "DimProductCategory.CategoryName") {
			sawProdCat = true
		}
	}
	if !sawAddr || !sawProdCat {
		t.Errorf("Table 1 alternates missing: addr=%v prodcat=%v", sawAddr, sawProdCat)
	}
}

// Table 2's shape: the Product dimension shows the promoted subcategory
// facet whose instance is Mountain Bikes, plus ranked attributes
// including a numeric DealerPrice facet split into 3 ranges.
func TestTable2(t *testing.T) {
	f, lines, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		t.Log(l)
	}
	var product *kdapcoreDimensionFacets
	for _, d := range f.Dimensions {
		if d.Dimension == "Product" {
			product = &kdapcoreDimensionFacets{d.Hitted, len(d.Attributes)}
			if !d.Hitted {
				t.Error("Product dimension should be hitted")
			}
			promoted := d.Attributes[0]
			if !promoted.Promoted || promoted.Attr.Attr != "SubcategoryName" {
				t.Errorf("first attribute should be the promoted subcategory, got %v", promoted.Attr)
			}
			if len(promoted.Instances) != 1 || promoted.Instances[0].Label != "Mountain Bikes" {
				t.Errorf("promoted instances = %v", promoted.Instances)
			}
			var sawNumeric bool
			for _, a := range d.Attributes {
				if a.Numeric && a.Attr.Attr == "DealerPrice" {
					sawNumeric = true
					if len(a.Instances) != 3 {
						t.Errorf("DealerPrice ranges = %d, want 3", len(a.Instances))
					}
				}
			}
			if !sawNumeric {
				names := []string{}
				for _, a := range d.Attributes {
					names = append(names, a.Attr.Attr)
				}
				t.Errorf("DealerPrice facet missing; attrs = %v", names)
			}
		}
	}
	if product == nil {
		t.Fatal("no Product dimension in facets")
	}
}

type kdapcoreDimensionFacets struct {
	hitted bool
	attrs  int
}

// Figure 5: error falls as buckets grow and is small (<10% on average)
// by 40–80 buckets, the paper's convergence claim.
func TestFig5Shape(t *testing.T) {
	wh := dataset.AWOnline()
	e := Engine(wh)
	var results []BucketSweepResult
	for _, c := range Fig5Cases() {
		r, err := BucketSweep(wh, e, c, DefaultBucketSweep)
		if err != nil {
			t.Fatalf("%s: %v", c.Label, err)
		}
		results = append(results, r)
	}
	t.Logf("\n%s", FormatBucketSweeps(results))
	for _, r := range results {
		first, last := r.ErrPct[0], r.ErrPct[len(r.ErrPct)-1]
		// Decreasing overall; a sub-2-point wiggle at the converged level
		// is noise, not a trend (the paper's curves wiggle too).
		if last > first+2 {
			t.Errorf("%s: error grew from %.2f%% to %.2f%%", r.Label, first, last)
		}
		if last > 10 {
			t.Errorf("%s: error at %d buckets = %.2f%%, want < 10%%", r.Label, r.Buckets[len(r.Buckets)-1], last)
		}
		if r.Cases < 3 {
			t.Errorf("%s: only %d roll-up cases", r.Label, r.Cases)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	wh := dataset.AWReseller()
	e := Engine(wh)
	var results []BucketSweepResult
	for _, c := range Fig6Cases() {
		r, err := BucketSweep(wh, e, c, DefaultBucketSweep)
		if err != nil {
			t.Fatalf("%s: %v", c.Label, err)
		}
		results = append(results, r)
	}
	t.Logf("\n%s", FormatBucketSweeps(results))
	for _, r := range results {
		last := r.ErrPct[len(r.ErrPct)-1]
		if last > 10 {
			t.Errorf("%s: error at max buckets = %.2f%%", r.Label, last)
		}
	}
}

// Figure 7/8: the merge error decreases with iterations for every case
// and K, and converges near the basic-interval quality by the last
// sample.
func TestFig7Shape(t *testing.T) {
	for _, c := range Fig7Cases() {
		curves, err := Fig7(c, []int{5, 6, 7}, DefaultAnnealIterations)
		if err != nil {
			t.Fatalf("%s: %v", c.Label, err)
		}
		t.Logf("\n%s", FormatAnnealCurves(curves))
		for _, r := range curves {
			first, last := r.ErrPct[0], r.ErrPct[len(r.ErrPct)-1]
			if last > first+1e-9 {
				t.Errorf("%s K=%d: error grew %.3f%% → %.3f%%", r.Label, r.K, first, last)
			}
		}
	}
}

func TestFormatRankCurves(t *testing.T) {
	e := Engine(dataset.AWOnline())
	curves, err := Fig4(e, nil)
	if err == nil && len(curves) > 0 {
		_ = FormatRankCurves(curves)
	}
	if FormatBucketSweeps(nil) != "" || FormatAnnealCurves(nil) != "" {
		t.Error("empty formatting should be empty")
	}
}
