package relation

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Per-segment Bloom filters over key-like and term columns of a paged
// store. A filter is sized at build time from the segment's actual
// distinct-value count (bloomBitsPerKey bits each, k = bloomHashes
// probes), so sparse segments stay tiny while full-cardinality ones get
// a useful false-positive rate (~1% at 10 bits/key, 7 hashes — the
// classic LevelDB operating point). Probes use double hashing over one
// 64-bit FNV-1a digest of the value's canonical encoding, so a filter
// built by the appender and a probe issued by a scan agree on bit
// positions by construction.

const (
	bloomBitsPerKey = 10
	bloomHashes     = 7
	bloomMinBits    = 64
)

// Bloom is one segment's filter: a bit array probed K times. Its fields
// are exported for the segment manifest codec.
type Bloom struct {
	Bits []byte
	K    uint32
}

// hashValue digests a value's canonical encoding: a kind tag byte
// followed by the kind's payload bytes. Int and Float payloads differ
// even for equal magnitudes — probes are kind-exact, matching the
// hash index's equality.
func hashValue(v Value) uint64 {
	h := fnv.New64a()
	var tag [1]byte
	var buf [8]byte
	switch v.Kind() {
	case KindString:
		tag[0] = 's'
		h.Write(tag[:])
		h.Write([]byte(v.Str()))
	case KindInt:
		tag[0] = 'i'
		h.Write(tag[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(v.IntVal()))
		h.Write(buf[:])
	case KindFloat:
		tag[0] = 'f'
		h.Write(tag[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.FloatVal()))
		h.Write(buf[:])
	case KindBool:
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

// newBloom builds a filter over a set of distinct hashes.
func newBloom(hashes map[uint64]struct{}) Bloom {
	nbits := len(hashes) * bloomBitsPerKey
	if nbits < bloomMinBits {
		nbits = bloomMinBits
	}
	nbits = (nbits + 7) &^ 7
	f := Bloom{Bits: make([]byte, nbits/8), K: bloomHashes}
	m := uint64(nbits)
	for d := range hashes {
		h1, h2 := bloomProbes(d)
		for i := uint64(0); i < uint64(f.K); i++ {
			bit := (h1 + i*h2) % m
			f.Bits[bit/8] |= 1 << (bit % 8)
		}
	}
	return f
}

// mayContainAny reports whether any of vals may be in the filter. A
// false result is definitive; true may be a false positive.
func (f Bloom) mayContainAny(vals []Value) bool {
	m := uint64(len(f.Bits)) * 8
	if m == 0 || f.K == 0 {
		return true // degenerate filter carries no evidence
	}
probe:
	for _, v := range vals {
		h1, h2 := bloomProbes(hashValue(v))
		for i := uint64(0); i < uint64(f.K); i++ {
			bit := (h1 + i*h2) % m
			if f.Bits[bit/8]&(1<<(bit%8)) == 0 {
				continue probe
			}
		}
		return true
	}
	return false
}
