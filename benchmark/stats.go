package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before the harness prints it: with fewer, the figure is one or two
// outliers, not a property of the system.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted,
// or an error when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	return sorted[idx], nil
}

// median is the middle of xs (mean of the two middles when even); xs is
// sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// spread is the run-to-run spread -compare and the README quote: the
// distance between the first and third quartile over the median, as
// Python's statistics.quantiles(n=4) cuts them; with fewer than four
// values, max-min over the median.
func spread(xs []float64) float64 {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	if n < 4 {
		return (xs[n-1] - xs[0]) / math.Abs(m)
	}
	q := func(k int) float64 {
		// "exclusive" method: position k(n+1)/4, 1-based, interpolated.
		pos := float64(k) * float64(n+1) / 4
		lo := int(math.Floor(pos))
		if lo < 1 {
			return xs[0]
		}
		if lo >= n {
			return xs[n-1]
		}
		return xs[lo-1] + (pos-float64(lo))*(xs[lo]-xs[lo-1])
	}
	return (q(3) - q(1)) / math.Abs(m)
}
