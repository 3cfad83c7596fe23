package persist

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"kdap/internal/relation"
)

// Per-segment Bloom filters over key-like and term columns. A filter is
// sized at build time from the segment's actual distinct-value count
// (bloomBitsPerKey bits each, k = bloomHashes probes), so sparse
// segments stay tiny while full-cardinality ones get a useful false-
// positive rate (~1% at 10 bits/key, 7 hashes — the classic LevelDB
// operating point). Probes use double hashing over one 64-bit FNV-1a
// digest of the value's canonical encoding, so a filter built by the
// appender and a probe issued by a scan agree on bit positions by
// construction.

const (
	bloomBitsPerKey = 10
	bloomHashes     = 7
	bloomMinBits    = 64
)

// bloomFilter is one segment's filter: a bit array probed k times.
type bloomFilter struct {
	bits []byte
	k    uint32
}

// hashValue digests a value's canonical encoding: a kind tag byte
// followed by the kind's payload bytes. Int and Float payloads differ
// even for equal magnitudes — probes are kind-exact, matching the
// engine's hash-index equality.
func hashValue(v relation.Value) uint64 {
	h := fnv.New64a()
	var tag [1]byte
	var buf [8]byte
	switch v.Kind() {
	case relation.KindString:
		tag[0] = 's'
		h.Write(tag[:])
		h.Write([]byte(v.Str()))
	case relation.KindInt:
		tag[0] = 'i'
		h.Write(tag[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(v.IntVal()))
		h.Write(buf[:])
	case relation.KindFloat:
		tag[0] = 'f'
		h.Write(tag[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.FloatVal()))
		h.Write(buf[:])
	case relation.KindBool:
		tag[0] = 'b'
		if v.BoolVal() {
			tag[0] = 'B'
		}
		h.Write(tag[:])
	default: // NULL never enters a filter
		tag[0] = 'n'
		h.Write(tag[:])
	}
	return h.Sum64()
}

// bloomProbes derives the double-hashing pair from one digest. h2 is
// forced odd so successive probes walk the whole (power-free) bit space.
func bloomProbes(digest uint64) (h1, h2 uint64) {
	h1 = digest
	h2 = digest>>33 | digest<<31
	h2 |= 1
	return h1, h2
}

// newBloom builds a filter over n distinct hashes.
func newBloom(hashes []uint64) bloomFilter {
	nbits := len(hashes) * bloomBitsPerKey
	if nbits < bloomMinBits {
		nbits = bloomMinBits
	}
	nbits = (nbits + 7) &^ 7
	f := bloomFilter{bits: make([]byte, nbits/8), k: bloomHashes}
	m := uint64(nbits)
	for _, d := range hashes {
		h1, h2 := bloomProbes(d)
		for i := uint64(0); i < uint64(f.k); i++ {
			bit := (h1 + i*h2) % m
			f.bits[bit/8] |= 1 << (bit % 8)
		}
	}
	return f
}

// mayContain reports whether the digest may be in the filter. A false
// result is definitive; true may be a false positive.
func (f bloomFilter) mayContain(digest uint64) bool {
	m := uint64(len(f.bits)) * 8
	if m == 0 || f.k == 0 {
		return true // degenerate filter carries no evidence
	}
	h1, h2 := bloomProbes(digest)
	for i := uint64(0); i < uint64(f.k); i++ {
		bit := (h1 + i*h2) % m
		if f.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}
