package kdapcore

import (
	"bytes"
	"fmt"
	"strconv"
)

// Fingerprint returns a canonical byte encoding of the facets. Every
// float is rendered in hexadecimal form, so ±Inf, NaN, and last-bit
// differences all surface — unlike the JSON the HTTP layer emits, which
// sanitizes non-finite scores. Two Facets fingerprint equal iff a user
// could not tell them apart by any field; the equivalence suites use it
// to hold every execution strategy (pruned, backed, appended, warm
// spaces) to byte-identical output, and a golden set of its digests
// pins the output across refactors.
func (f *Facets) Fingerprint() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "rows=%d agg=%s partial=%v\n",
		f.SubspaceSize, hexFloat(f.TotalAggregate), f.Partial)
	for _, d := range f.Dimensions {
		fmt.Fprintf(&b, "dim %s hitted=%v\n", d.Dimension, d.Hitted)
		for _, a := range d.Attributes {
			fmt.Fprintf(&b, " attr %s role=%s score=%s promoted=%v numeric=%v\n",
				a.Attr, a.Role, hexFloat(a.Score), a.Promoted, a.Numeric)
			for _, in := range a.Instances {
				fmt.Fprintf(&b, "  %q value=%s lo=%s hi=%s agg=%s score=%s\n",
					in.Label, in.Value.GoString(), hexFloat(in.Lo), hexFloat(in.Hi),
					hexFloat(in.Aggregate), hexFloat(in.Score))
			}
		}
	}
	return b.Bytes()
}

// hexFloat renders a float exactly: hexadecimal mantissa/exponent for
// finite values, "+Inf"/"-Inf"/"NaN" otherwise.
func hexFloat(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
