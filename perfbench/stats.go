package main

import (
	"math"
	"slices"
)

// quantiles returns the exact q-quantiles of xs, one per entry of qs,
// by the nearest-rank rule: the q-quantile is the smallest sample with
// at least ceil(q·n) samples at or below it. Every timing quantile the
// benchmark reports comes from here, computed over the raw samples; xs
// is left untouched. An empty input yields zeros.
func quantiles(xs []int64, qs ...float64) []int64 {
	out := make([]int64, len(qs))
	if len(xs) == 0 {
		return out
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	for i, q := range qs {
		out[i] = sorted[rank(len(sorted), q)]
	}
	return out
}

// rank is the 0-based index of the nearest-rank q-quantile in a sorted
// slice of n samples.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n))) - 1
	return min(max(k, 0), n-1)
}

// median is the nearest-rank 0.5-quantile.
func median(xs []int64) int64 { return quantiles(xs, 0.5)[0] }

// medianF is the nearest-rank median of float samples, 0 when empty.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return sorted[rank(len(sorted), 0.5)]
}

// p99Block is how many consecutive samples one tail estimate uses: the
// 0.99-quantile of a block has ten samples beyond it.
const p99Block = 1000

// blockP99 cuts samples, in completion order, into blocks of p99Block,
// takes each block's exact 0.99-quantile and returns their median: the
// tail a typical stretch of the run sees, steady against one stall.
// Fewer samples than a block give the 0.99-quantile of them all.
func blockP99(xs []int64) int64 {
	if len(xs) < p99Block {
		return quantiles(xs, 0.99)[0]
	}
	var tails []int64
	for i := 0; i+p99Block <= len(xs); i += p99Block {
		tails = append(tails, quantiles(xs[i:i+p99Block], 0.99)[0])
	}
	return median(tails)
}

// interval is a half-open time interval [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping intervals once. The intervals may arrive in any order.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y interval) int {
		switch {
		case x.lo < y.lo:
			return -1
		case x.lo > y.lo:
			return 1
		}
		return 0
	})
	var total int64
	end := lo
	for _, iv := range clipped {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// us and ms convert nanoseconds to the reported float units.
func us(ns int64) float64 { return float64(ns) / 1e3 }
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// ratio divides, reporting 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
