package persist

import (
	"reflect"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/relation"
)

// Segment zones are derived state — like the full-text index they are
// not part of a snapshot but re-derived from the fact table. Re-deriving
// them on a round-tripped warehouse must reproduce every zone exactly,
// and the table's lazily built evidence must agree with a one-pass
// reference; anything else would mean the snapshot altered the fact data
// the zones summarize.
func TestRoundTripRederivesIdenticalZones(t *testing.T) {
	orig := dataset.EBiz()
	got := roundTrip(t, orig)
	factName := orig.Graph.FactTable()
	fo, fg := orig.DB.Table(factName), got.DB.Table(factName)

	const segSize = 256 // finer than the table's own unit: 16 zones over EBiz
	numeric := 0
	for _, c := range fo.Schema().Columns {
		if c.Kind != relation.KindInt && c.Kind != relation.KindFloat {
			continue
		}
		numeric++
		zo := onePassZones(fo.FloatColumn(c.Name), segSize)
		zg := onePassZones(fg.FloatColumn(c.Name), segSize)
		if !reflect.DeepEqual(zo, zg) {
			t.Fatalf("column %s: zones differ after round trip:\n%v\n%v", c.Name, zo, zg)
		}
		// The table's own evidence, at its own unit, matches the reference.
		for si, z := range onePassZones(fg.FloatColumn(c.Name), fg.SegmentSize()) {
			for _, probe := range []struct {
				lo, hi float64
				want   bool
			}{{z.Min, z.Min, true}, {z.Max, z.Max, true}, {z.Max + 1, z.Max + 2, false}, {z.Min - 2, z.Min - 1, false}} {
				if ov, ok := fg.SegmentZoneOverlaps(c.Name, si, probe.lo, probe.hi); !ok || ov != probe.want {
					t.Fatalf("column %s segment %d probe [%g,%g] = (%v,%v), want %v",
						c.Name, si, probe.lo, probe.hi, ov, ok, probe.want)
				}
			}
		}
	}
	if numeric == 0 {
		t.Fatal("fact table has no zone-mapped columns")
	}
}

// onePassZones is the reference: each segment's zone folded from its
// values in one pass.
func onePassZones(vals []float64, segSize int) []relation.Zone {
	out := make([]relation.Zone, relation.NumSegments(len(vals), segSize))
	for si := range out {
		out[si] = relation.EmptyZone()
		for _, v := range vals[si*segSize : min((si+1)*segSize, len(vals))] {
			out[si].Observe(v)
		}
	}
	return out
}
