// Package bitset implements fixed-universe bit sets used by the OLAP
// executor to represent sets of fact rows. Star-net evaluation is
// dominated by intersecting row sets that repeat across candidate nets
// (every interpretation containing the "California" hit group shares the
// same semijoin result); bitsets make the intersection a word-parallel
// AND and make per-constraint caching cheap.
package bitset

import "math/bits"

// Set is a bit set over the universe [0, Len()).
type Set struct {
	words []uint64
	n     int
}

// New creates an empty set over a universe of n elements.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative universe")
	}
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// FromSorted builds a set from sorted (or unsorted — order is irrelevant)
// element slices.
func FromSorted(n int, xs []int) *Set {
	s := New(n)
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// Len returns the universe size.
func (s *Set) Len() int { return s.n }

// Add inserts x. It panics if x is outside the universe.
func (s *Set) Add(x int) {
	if x < 0 || x >= s.n {
		panic("bitset: element outside universe")
	}
	s.words[x>>6] |= 1 << (uint(x) & 63)
}

// AddMapped adds every x in [lo, lo+len(to)) whose image to[x-lo] is a
// member of hit; a negative image maps nowhere. It is the scan form of a
// many-to-one semijoin — to is a fact→dimension row mapping, hit the
// matching dimension rows — and assembles each result word in a register
// before touching s. It panics if the range leaves the universe.
func (s *Set) AddMapped(lo int, to []int32, hit *Set) {
	hi := lo + len(to)
	if lo < 0 || hi > s.n {
		panic("bitset: range outside universe")
	}
	for x := lo; x < hi; {
		wi := x >> 6
		var w uint64
		for end := min((wi+1)<<6, hi); x < end; x++ {
			// A negative image wraps to a huge unsigned one; the membership
			// bit is shifted into place rather than branched on, so hit
			// density does not cost mispredictions.
			if d := uint(to[x-lo]); d < uint(hit.n) {
				w |= (hit.words[d>>6] >> (d & 63) & 1) << (uint(x) & 63)
			}
		}
		s.words[wi] |= w
	}
}

// Contains reports membership of x.
func (s *Set) Contains(x int) bool {
	if x < 0 || x >= s.n {
		return false
	}
	return s.words[x>>6]&(1<<(uint(x)&63)) != 0
}

// Count returns the number of elements.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	out := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(out.words, s.words)
	return out
}

// Universes need not match for the binary operations below: a set over a
// smaller universe is treated as the same set over the larger one, with
// every element past its own Len() absent. Streaming ingest grows the
// fact-row universe while cached per-constraint sets lag behind, so a
// mixed intersection naturally truncates to the oldest published prefix
// — exactly the prefix-consistency contract docs/INGEST.md describes —
// instead of panicking mid-query.

// AndWith intersects s with o in place. If o covers a smaller universe,
// every element of s past o's universe is dropped.
func (s *Set) AndWith(o *Set) {
	n := min(len(s.words), len(o.words))
	for i := 0; i < n; i++ {
		s.words[i] &= o.words[i]
	}
	for i := n; i < len(s.words); i++ {
		s.words[i] = 0
	}
}

// OrWith unions o into s in place. If o covers a larger universe, s is
// grown to match so no element of o is lost.
func (s *Set) OrWith(o *Set) {
	if o.n > s.n {
		grown := make([]uint64, len(o.words))
		copy(grown, s.words)
		s.words, s.n = grown, o.n
	}
	for i := range o.words {
		s.words[i] |= o.words[i]
	}
}

// AndCount returns |s ∩ o| without materializing the intersection.
// Elements past the smaller universe count as absent.
func (s *Set) AndCount(o *Set) int {
	n := min(len(s.words), len(o.words))
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(s.words[i] & o.words[i])
	}
	return c
}

// AnyInRange reports whether the set contains any element in [lo, hi).
// The check is word-parallel — masked compares on the two boundary
// words, a zero test per interior word — so the segment planner can
// probe a row range far cheaper than materializing it.
func (s *Set) AnyInRange(lo, hi int) bool {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return false
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if loW == hiW {
		return s.words[loW]&loMask&hiMask != 0
	}
	if s.words[loW]&loMask != 0 {
		return true
	}
	for i := loW + 1; i < hiW; i++ {
		if s.words[i] != 0 {
			return true
		}
	}
	return s.words[hiW]&hiMask != 0
}

// clampRange narrows [lo, hi) to the universe every set covers. Mixed
// universes truncate to the smallest — an element outside any set's
// universe is absent from it.
func clampRange(lo, hi int, sets []*Set) (int, int) {
	if lo < 0 {
		lo = 0
	}
	for _, s := range sets {
		if s.n < hi {
			hi = s.n
		}
	}
	return lo, hi
}

// rangeWord returns word wi of the intersection of sets, masked to the
// (already clamped, non-empty) range [lo, hi).
func rangeWord(wi, lo, hi int, sets []*Set) uint64 {
	w := sets[0].words[wi]
	for _, o := range sets[1:] {
		w &= o.words[wi]
	}
	if base := wi << 6; base < lo {
		w &= ^uint64(0) << (uint(lo) & 63)
	}
	if wi<<6+63 >= hi {
		w &= ^uint64(0) >> (63 - (uint(hi-1) & 63))
	}
	return w
}

// IntersectRangeCount returns how many elements of [lo, hi) are present
// in every set — the exact length IntersectRangeAppend would append —
// at a popcount per word. With no sets it returns 0.
func IntersectRangeCount(lo, hi int, sets []*Set) int {
	if len(sets) == 0 {
		return 0
	}
	lo, hi = clampRange(lo, hi, sets)
	c := 0
	for wi := lo >> 6; lo < hi && wi <= (hi-1)>>6; wi++ {
		c += bits.OnesCount64(rangeWord(wi, lo, hi, sets))
	}
	return c
}

// IntersectRangeAppend appends, in ascending order, the elements of
// [lo, hi) present in every set, without materializing the
// intersection. With no sets it appends nothing.
func IntersectRangeAppend(dst []int, lo, hi int, sets []*Set) []int {
	if len(sets) == 0 {
		return dst
	}
	lo, hi = clampRange(lo, hi, sets)
	for wi := lo >> 6; lo < hi && wi <= (hi-1)>>6; wi++ {
		base := wi << 6
		for w := rangeWord(wi, lo, hi, sets); w != 0; w &= w - 1 {
			dst = append(dst, base+bits.TrailingZeros64(w))
		}
	}
	return dst
}

// ToSlice returns the elements in ascending order.
func (s *Set) ToSlice() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		base := wi << 6
		for w != 0 {
			out = append(out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// Range calls fn for each element in ascending order, stopping early if
// fn returns false.
func (s *Set) Range(fn func(x int) bool) {
	for wi, w := range s.words {
		base := wi << 6
		for w != 0 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
		}
	}
}
