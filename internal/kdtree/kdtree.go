// Package kdtree implements a static 2-d tree over points for nearest-point
// queries. It stays logarithmic on the heavily skewed clustered workloads
// the experiments generate; the approximate MWVD refinement (internal/mwvd)
// uses it for nearest-site lookups.
package kdtree

import (
	"sort"

	"molq/internal/geom"
)

// layout computes a kd-tree's median layout: a permutation of point indices
// in which idx[lo:hi] is a subtree whose splitting point sits at the
// midpoint, split by x at even depths and by y at odd ones.
type layout struct {
	pts []geom.Point
	idx []int32
}

// medianLayout returns the median-layout permutation of pts' indices.
func medianLayout(pts []geom.Point) []int32 {
	t := &layout{pts: pts, idx: make([]int32, len(pts))}
	for i := range t.idx {
		t.idx[i] = int32(i)
	}
	t.build(0, len(t.idx), 0)
	return t.idx
}

// build arranges idx[lo:hi] so the median by the split axis sits at the
// midpoint, recursively.
func (t *layout) build(lo, hi, axis int) {
	if hi-lo <= 1 {
		return
	}
	mid := (lo + hi) / 2
	t.nthElement(lo, hi, mid, axis)
	t.build(lo, mid, 1-axis)
	t.build(mid+1, hi, 1-axis)
}

func (t *layout) coord(i int32, axis int) float64 {
	if axis == 0 {
		return t.pts[i].X
	}
	return t.pts[i].Y
}

// nthElement partially sorts idx[lo:hi] so position n holds the n-th
// smallest by axis (quickselect with median-of-three pivots, falling back to
// full sort on tiny ranges).
func (t *layout) nthElement(lo, hi, n, axis int) {
	for hi-lo > 8 {
		// Median-of-three pivot.
		a, b, c := t.coord(t.idx[lo], axis), t.coord(t.idx[(lo+hi)/2], axis), t.coord(t.idx[hi-1], axis)
		pivot := b
		if (a <= b) == (b <= c) {
			pivot = b
		} else if (b <= a) == (a <= c) {
			pivot = a
		} else {
			pivot = c
		}
		i, j := lo, hi-1
		for i <= j {
			for t.coord(t.idx[i], axis) < pivot {
				i++
			}
			for t.coord(t.idx[j], axis) > pivot {
				j--
			}
			if i <= j {
				t.idx[i], t.idx[j] = t.idx[j], t.idx[i]
				i++
				j--
			}
		}
		switch {
		case n <= j:
			hi = j + 1
		case n >= i:
			lo = i
		default:
			return
		}
	}
	sub := t.idx[lo:hi]
	sort.Slice(sub, func(x, y int) bool {
		return t.coord(sub[x], axis) < t.coord(sub[y], axis)
	})
}
