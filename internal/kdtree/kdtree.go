// Package kdtree implements a static 2-d tree over points with nearest,
// k-nearest and rectangle queries. It stays logarithmic on the heavily
// skewed clustered workloads the experiments generate; the approximate MWVD
// refinement (internal/mwvd) uses its flat form for nearest-site lookups.
package kdtree

import (
	"container/heap"
	"math"
	"sort"

	"molq/internal/geom"
)

// Tree is an immutable balanced kd-tree. Build once, query concurrently.
type Tree struct {
	pts []geom.Point
	idx []int32 // median-layout permutation of point indices
}

// Build constructs a tree over pts. The slice is retained (not copied); the
// caller must not mutate it afterwards.
func Build(pts []geom.Point) *Tree {
	t := &Tree{pts: pts, idx: make([]int32, len(pts))}
	for i := range t.idx {
		t.idx[i] = int32(i)
	}
	t.build(0, len(t.idx), 0)
	return t
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.pts) }

// build arranges idx[lo:hi] so the median by the split axis sits at the
// midpoint, recursively.
func (t *Tree) build(lo, hi, axis int) {
	if hi-lo <= 1 {
		return
	}
	mid := (lo + hi) / 2
	t.nthElement(lo, hi, mid, axis)
	t.build(lo, mid, 1-axis)
	t.build(mid+1, hi, 1-axis)
}

func (t *Tree) coord(i int32, axis int) float64 {
	if axis == 0 {
		return t.pts[i].X
	}
	return t.pts[i].Y
}

// nthElement partially sorts idx[lo:hi] so position n holds the n-th
// smallest by axis (quickselect with median-of-three pivots, falling back to
// full sort on tiny ranges).
func (t *Tree) nthElement(lo, hi, n, axis int) {
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

// Nearest returns the index and distance of the closest point to q, or
// (-1, +Inf) for an empty tree.
func (t *Tree) Nearest(q geom.Point) (int, float64) {
	if len(t.idx) == 0 {
		return -1, math.Inf(1)
	}
	best := int32(-1)
	bestD2 := math.Inf(1)
	t.nearest(0, len(t.idx), 0, q, &best, &bestD2)
	return int(best), math.Sqrt(bestD2)
}

func (t *Tree) nearest(lo, hi, axis int, q geom.Point, best *int32, bestD2 *float64) {
	if hi <= lo {
		return
	}
	mid := (lo + hi) / 2
	pi := t.idx[mid]
	if d2 := q.Dist2(t.pts[pi]); d2 < *bestD2 {
		*bestD2 = d2
		*best = pi
	}
	var qc, mc float64
	if axis == 0 {
		qc, mc = q.X, t.pts[pi].X
	} else {
		qc, mc = q.Y, t.pts[pi].Y
	}
	delta := qc - mc
	fLo, fHi, sLo, sHi := lo, mid, mid+1, hi
	if delta > 0 {
		fLo, fHi, sLo, sHi = mid+1, hi, lo, mid
	}
	t.nearest(fLo, fHi, 1-axis, q, best, bestD2)
	if delta*delta < *bestD2 {
		t.nearest(sLo, sHi, 1-axis, q, best, bestD2)
	}
}

// Neighbor is one k-nearest result.
type Neighbor struct {
	Index int
	Dist  float64
}

// knnHeap is a max-heap by distance (so the worst of the best k is on top).
type knnHeap []Neighbor

func (h knnHeap) Len() int           { return len(h) }
func (h knnHeap) Less(i, j int) bool { return h[i].Dist > h[j].Dist }
func (h knnHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *knnHeap) Push(x any)        { *h = append(*h, x.(Neighbor)) }
func (h *knnHeap) Pop() any          { o := *h; n := len(o); it := o[n-1]; *h = o[:n-1]; return it }

// KNearest returns the k closest points ordered by ascending distance
// (fewer if the tree holds fewer points).
func (t *Tree) KNearest(q geom.Point, k int) []Neighbor {
	if k <= 0 || len(t.idx) == 0 {
		return nil
	}
	h := make(knnHeap, 0, k+1)
	t.knearest(0, len(t.idx), 0, q, k, &h)
	out := make([]Neighbor, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Neighbor)
	}
	return out
}

func (t *Tree) knearest(lo, hi, axis int, q geom.Point, k int, h *knnHeap) {
	if hi <= lo {
		return
	}
	mid := (lo + hi) / 2
	pi := t.idx[mid]
	d := q.Dist(t.pts[pi])
	if len(*h) < k {
		heap.Push(h, Neighbor{Index: int(pi), Dist: d})
	} else if d < (*h)[0].Dist {
		heap.Pop(h)
		heap.Push(h, Neighbor{Index: int(pi), Dist: d})
	}
	var qc, mc float64
	if axis == 0 {
		qc, mc = q.X, t.pts[pi].X
	} else {
		qc, mc = q.Y, t.pts[pi].Y
	}
	delta := qc - mc
	fLo, fHi, sLo, sHi := lo, mid, mid+1, hi
	if delta > 0 {
		fLo, fHi, sLo, sHi = mid+1, hi, lo, mid
	}
	t.knearest(fLo, fHi, 1-axis, q, k, h)
	if len(*h) < k || math.Abs(delta) < (*h)[0].Dist {
		t.knearest(sLo, sHi, 1-axis, q, k, h)
	}
}

// InRect calls fn for every point inside r (boundary inclusive); fn
// returning false stops the scan.
func (t *Tree) InRect(r geom.Rect, fn func(i int) bool) {
	t.inRect(0, len(t.idx), 0, r, fn)
}

func (t *Tree) inRect(lo, hi, axis int, r geom.Rect, fn func(i int) bool) bool {
	if hi <= lo {
		return true
	}
	mid := (lo + hi) / 2
	pi := t.idx[mid]
	p := t.pts[pi]
	if r.Contains(p) {
		if !fn(int(pi)) {
			return false
		}
	}
	var minC, maxC, c float64
	if axis == 0 {
		minC, maxC, c = r.Min.X, r.Max.X, p.X
	} else {
		minC, maxC, c = r.Min.Y, r.Max.Y, p.Y
	}
	if minC <= c {
		if !t.inRect(lo, mid, 1-axis, r, fn) {
			return false
		}
	}
	if maxC >= c {
		if !t.inRect(mid+1, hi, 1-axis, r, fn) {
			return false
		}
	}
	return true
}
