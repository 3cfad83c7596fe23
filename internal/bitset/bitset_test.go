package bitset

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"kdap/internal/stats"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.Len() != 130 || s.Count() != 0 {
		t.Fatal("fresh set")
	}
	for _, x := range []int{0, 1, 63, 64, 65, 127, 129} {
		s.Add(x)
	}
	if s.Count() != 7 {
		t.Errorf("Count = %d", s.Count())
	}
	if !s.Contains(64) || s.Contains(2) || s.Contains(-1) || s.Contains(500) {
		t.Error("Contains wrong")
	}
	want := []int{0, 1, 63, 64, 65, 127, 129}
	if got := s.ToSlice(); !reflect.DeepEqual(got, want) {
		t.Errorf("ToSlice = %v", got)
	}
}

func TestAddPanics(t *testing.T) {
	s := New(10)
	for _, x := range []int{-1, 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) should panic", x)
				}
			}()
			s.Add(x)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestSetAlgebra(t *testing.T) {
	a := FromSorted(200, []int{1, 5, 64, 100, 150})
	b := FromSorted(200, []int{5, 64, 99, 150, 199})

	inter := a.Clone()
	inter.AndWith(b)
	if got := inter.ToSlice(); !reflect.DeepEqual(got, []int{5, 64, 150}) {
		t.Errorf("and = %v", got)
	}
	if a.AndCount(b) != 3 {
		t.Errorf("AndCount = %d", a.AndCount(b))
	}
	union := a.Clone()
	union.OrWith(b)
	if union.Count() != 7 {
		t.Errorf("or count = %d", union.Count())
	}
	// Originals untouched.
	if a.Count() != 5 || b.Count() != 5 {
		t.Error("operands mutated")
	}
}

// Mixed universes arise when streaming ingest grows the fact table while
// cached per-constraint sets lag behind: the binary operations treat the
// smaller set as having every element past its own Len() absent.
func TestUniverseMismatchTruncates(t *testing.T) {
	big := FromSorted(200, []int{1, 64, 130, 199})
	small := FromSorted(100, []int{1, 64, 99})

	inter := big.Clone()
	inter.AndWith(small)
	if got := inter.ToSlice(); !reflect.DeepEqual(got, []int{1, 64}) {
		t.Errorf("big∩small = %v", got)
	}
	inter2 := small.Clone()
	inter2.AndWith(big)
	if got := inter2.ToSlice(); !reflect.DeepEqual(got, []int{1, 64}) {
		t.Errorf("small∩big = %v", got)
	}
	if got := big.AndCount(small); got != 2 {
		t.Errorf("AndCount = %d", got)
	}
	if got := small.AndCount(big); got != 2 {
		t.Errorf("AndCount reversed = %d", got)
	}

	union := small.Clone()
	union.OrWith(big)
	if union.Len() != 200 {
		t.Errorf("OrWith did not grow: Len = %d", union.Len())
	}
	if got := union.ToSlice(); !reflect.DeepEqual(got, []int{1, 64, 99, 130, 199}) {
		t.Errorf("small∪big = %v", got)
	}

	got := IntersectRangeAppend(nil, 0, 200, []*Set{big, small})
	if !reflect.DeepEqual(got, []int{1, 64}) {
		t.Errorf("IntersectRangeAppend mixed = %v", got)
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := FromSorted(100, []int{3, 30, 70})
	var seen []int
	s.Range(func(x int) bool {
		seen = append(seen, x)
		return len(seen) < 2
	})
	if !reflect.DeepEqual(seen, []int{3, 30}) {
		t.Errorf("Range = %v", seen)
	}
}

// Property: bitset intersection agrees with a map-based reference for
// random sets.
func TestIntersectionMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 64 + rng.Intn(512)
		mkSet := func() ([]int, *Set) {
			var xs []int
			seen := map[int]bool{}
			for i := 0; i < n/3; i++ {
				x := rng.Intn(n)
				if !seen[x] {
					seen[x] = true
					xs = append(xs, x)
				}
			}
			sort.Ints(xs)
			return xs, FromSorted(n, xs)
		}
		ax, as := mkSet()
		bx, bs := mkSet()
		inB := map[int]bool{}
		for _, x := range bx {
			inB[x] = true
		}
		var want []int
		for _, x := range ax {
			if inB[x] {
				want = append(want, x)
			}
		}
		got := as.Clone()
		got.AndWith(bs)
		gotSlice := got.ToSlice()
		if len(want) != len(gotSlice) {
			return false
		}
		for i := range want {
			if want[i] != gotSlice[i] {
				return false
			}
		}
		return as.AndCount(bs) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the range primitives agree with the whole-set reference
// operations restricted to [lo, hi) for random sets and ranges.
func TestRangeOpsMatchReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(400)
		a := New(n)
		b := New(n)
		for i := 0; i < n/2; i++ {
			a.Add(rng.Intn(n))
			b.Add(rng.Intn(n))
		}
		lo := rng.Intn(n + 1)
		hi := rng.Intn(n + 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		var wantRange, wantBoth []int
		for _, x := range a.ToSlice() {
			if x >= lo && x < hi {
				wantRange = append(wantRange, x)
				if b.Contains(x) {
					wantBoth = append(wantBoth, x)
				}
			}
		}
		if a.AnyInRange(lo, hi) != (len(wantRange) > 0) {
			return false
		}
		if got := IntersectRangeAppend(nil, lo, hi, []*Set{a}); !reflect.DeepEqual(got, wantRange) {
			return false
		}
		if IntersectRangeCount(lo, hi, []*Set{a}) != len(wantRange) || IntersectRangeCount(lo, hi, []*Set{a, b}) != len(wantBoth) {
			return false
		}
		got := IntersectRangeAppend(nil, lo, hi, []*Set{a, b})
		return reflect.DeepEqual(got, wantBoth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRangeOpsEdges(t *testing.T) {
	s := FromSorted(130, []int{0, 63, 64, 129})
	if s.AnyInRange(1, 63) {
		t.Error("empty interior range matched")
	}
	if !s.AnyInRange(63, 64) || !s.AnyInRange(0, 1) || !s.AnyInRange(129, 130) {
		t.Error("boundary elements missed")
	}
	if s.AnyInRange(5, 5) || s.AnyInRange(-10, 0) || s.AnyInRange(130, 200) {
		t.Error("degenerate ranges matched")
	}
	if got := IntersectRangeAppend([]int{7}, 63, 130, []*Set{s}); !reflect.DeepEqual(got, []int{7, 63, 64, 129}) {
		t.Errorf("IntersectRangeAppend onto a prefix = %v", got)
	}
	if n := IntersectRangeCount(-5, 500, []*Set{s}); n != 4 {
		t.Errorf("IntersectRangeCount over the clamped universe = %d", n)
	}
	if got := IntersectRangeAppend(nil, 0, 130, nil); got != nil {
		t.Errorf("no sets should append nothing, got %v", got)
	}
	one := IntersectRangeAppend(nil, 60, 70, []*Set{s})
	if !reflect.DeepEqual(one, []int{63, 64}) {
		t.Errorf("single-set intersect = %v", one)
	}
}

// Property: ToSlice round-trips through FromSorted.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(300)
		s := New(n)
		for i := 0; i < n/2; i++ {
			s.Add(rng.Intn(n))
		}
		again := FromSorted(n, s.ToSlice())
		return reflect.DeepEqual(s.ToSlice(), again.ToSlice()) && s.Count() == again.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// AddMapped agrees with the element-at-a-time loop it replaces, for
// ranges starting and ending anywhere in a word, negative (unmapped)
// images, images past hit's universe, and a set that already holds
// elements.
func TestAddMappedMatchesReference(t *testing.T) {
	rng := stats.NewRNG(53)
	for trial := 0; trial < 200; trial++ {
		n, dims := 1+rng.Intn(400), 1+rng.Intn(70)
		hit := New(dims)
		for d := 0; d < dims; d++ {
			if rng.Intn(3) == 0 {
				hit.Add(d)
			}
		}
		got := New(n)
		for k := rng.Intn(5); k > 0; k-- {
			got.Add(rng.Intn(n))
		}
		want := got.Clone()
		lo := rng.Intn(n)
		to := make([]int32, rng.Intn(n-lo+1))
		for i := range to {
			to[i] = int32(rng.Intn(dims+3)) - 1 // -1 … dims+1
			if hit.Contains(int(to[i])) {
				want.Add(lo + i)
			}
		}
		got.AddMapped(lo, to, hit)
		if !reflect.DeepEqual(got.ToSlice(), want.ToSlice()) {
			t.Fatalf("trial %d: AddMapped(%d, %d images) = %v, want %v", trial, lo, len(to), got.ToSlice(), want.ToSlice())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("AddMapped past the universe did not panic")
		}
	}()
	New(10).AddMapped(8, make([]int32, 3), New(1))
}
