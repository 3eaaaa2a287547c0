package main

import (
	"math/rand"
	"slices"
	"testing"
)

// refQuantile is the nearest-rank definition read straight off a sorted
// slice: the smallest sample v with at least q·n samples <= v.
func refQuantile(xs []int64, q float64) int64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	for _, v := range sorted {
		atOrBelow := 0
		for _, w := range sorted {
			if w <= v {
				atOrBelow++
			}
		}
		if float64(atOrBelow) >= q*float64(len(sorted)) {
			return v
		}
	}
	return sorted[len(sorted)-1]
}

func TestQuantilesMatchSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 1001} {
		xs := make([]int64, n)
		for i := range xs {
			// Few distinct values, so ties are common.
			xs[i] = rng.Int63n(int64(n/3 + 2))
		}
		orig := slices.Clone(xs)
		got := quantiles(xs, qs...)
		for i, q := range qs {
			if want := refQuantile(xs, q); got[i] != want {
				t.Errorf("n=%d q=%v: got %d, want %d", n, q, got[i], want)
			}
		}
		if !slices.Equal(xs, orig) {
			t.Fatalf("n=%d: quantiles reordered its input", n)
		}
	}
	if got := quantiles(nil, 0.5); got[0] != 0 {
		t.Errorf("empty input: got %d, want 0", got[0])
	}
}

func TestBlockP99(t *testing.T) {
	// Three blocks whose tails are 100, 300 and 200: the median tail is
	// 200, however large one block's stall.
	var xs []int64
	for b, tail := range []int64{100, 300, 200} {
		for i := 0; i < p99Block; i++ {
			v := int64(i % 10)
			if i >= p99Block-11 {
				v = tail
			}
			if b == 1 && i == p99Block-1 {
				v = 1e9
			}
			xs = append(xs, v)
		}
	}
	if got := blockP99(xs); got != 200 {
		t.Errorf("blockP99 = %d, want 200", got)
	}
	short := []int64{5, 1, 3}
	if got, want := blockP99(short), refQuantile(short, 0.99); got != want {
		t.Errorf("short input: got %d, want %d", got, want)
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		lo, hi int64
		ivs    []interval
		want   int64
	}{
		{0, 100, nil, 0},
		{0, 100, []interval{{10, 20}}, 10},
		{0, 100, []interval{{10, 30}, {20, 40}}, 30},        // overlap counts once
		{0, 100, []interval{{50, 60}, {10, 20}}, 20},        // any order
		{0, 100, []interval{{-10, 5}, {95, 120}}, 10},       // clipped to [lo, hi)
		{0, 100, []interval{{10, 90}, {20, 30}}, 80},        // nested
		{0, 100, []interval{{0, 100}, {0, 100}}, 100},       // duplicates
		{10, 20, []interval{{0, 5}, {25, 30}, {12, 12}}, 0}, // outside or empty
	} {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestNestAndSelfTime(t *testing.T) {
	// A client commit [0,100) causes a core commit [10,90), during which
	// two mirrors' transport writes overlap: [20,50) and [30,60).
	spans := []span{
		{start: 0, end: 100, layer: layerTxclient, op: opCommit, parent: -1},
		{start: 10, end: 90, layer: layerCore, op: opCommit, parent: -1},
		{start: 20, end: 50, layer: layerTransport, op: opWrite, parent: -1},
		{start: 30, end: 60, layer: layerTransport, op: opWrite, parent: -1},
		{start: 120, end: 130, layer: layerTransport, op: opRead, parent: -1},
	}
	nest(spans, 0)
	wantParent := []int32{-1, 0, 1, 1, -1}
	for i, s := range spans {
		if s.parent != wantParent[i] {
			t.Errorf("span %d: parent %d, want %d", i, s.parent, wantParent[i])
		}
	}
	kids := children(spans)
	if got := selfTime(spans, 1, kids[1]); got != 40 {
		t.Errorf("core commit self time = %d, want 40", got)
	}
	if got := selfTime(spans, 0, kids[0]); got != 20 {
		t.Errorf("client commit self time = %d, want 20", got)
	}
}
