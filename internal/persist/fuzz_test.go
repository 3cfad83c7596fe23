package persist

import (
	"math"
	"testing"

	"kdap/internal/relation"
)

// fuzzManifests returns representative encoded manifests used to seed
// the decoder fuzzer: every column shape (numeric with zones+Bloom,
// dict with term lists, plain dict, empty table).
func fuzzManifests() [][]byte {
	mkZone := func(lo, hi float64) relation.Zone { return relation.Zone{Min: lo, Max: hi} }
	mkBloom := func(bits ...byte) relation.Bloom { return relation.Bloom{Bits: bits, K: 7} }
	full := &manifest{
		segSize: 64, numRows: 130,
		cols: []manifestCol{
			{
				name: "K", kind: relation.KindInt,
				zones:  []relation.Zone{mkZone(1, 64), mkZone(65, 128), mkZone(129, 130)},
				blooms: []relation.Bloom{mkBloom(0x12, 0, 0x80, 0, 0, 0x04, 0, 0x40), mkBloom(0, 0x21, 0, 0, 0x08, 0, 0, 0), mkBloom(0, 0, 0, 0, 0, 0, 0, 0)},
			},
			{
				name: "Term", kind: relation.KindString, isDict: true,
				dict:     []relation.Value{relation.String("a"), relation.String("b")},
				termSegs: [][]int32{{0, 1}, {2}},
			},
			{
				name: "V", kind: relation.KindFloat,
				zones: []relation.Zone{mkZone(0, 9.5), mkZone(math.Inf(1), math.Inf(-1)), mkZone(-1, 1)},
			},
			{
				name: "S", kind: relation.KindString, isDict: true,
				dict: []relation.Value{relation.Bool(true), relation.Int(-7), relation.Float(2.5), relation.String("x")},
			},
		},
	}
	empty := &manifest{segSize: 8192, numRows: 0, cols: []manifestCol{
		{name: "V", kind: relation.KindFloat, zones: nil},
	}}
	return [][]byte{encodeManifest(full), encodeManifest(empty)}
}

// FuzzSegmentManifest hammers the manifest decoder with arbitrary
// bytes: it must never panic or over-allocate, and any manifest it
// accepts must re-encode to the exact input bytes (the format has a
// single canonical encoding).
func FuzzSegmentManifest(f *testing.F) {
	for _, m := range fuzzManifests() {
		f.Add(m)
		// Truncations and bit flips of valid manifests steer coverage
		// toward the validation branches.
		f.Add(m[:len(m)/2])
		flipped := append([]byte(nil), m...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte("KDAPSEG1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		out := encodeManifest(m)
		if string(out) != string(data) {
			t.Fatalf("accepted manifest does not round-trip: %d in, %d out", len(data), len(out))
		}
	})
}
