package kdtree

import (
	"math"

	"molq/internal/geom"
)

// FlatTree is a bulk-loaded, structure-of-arrays kd-tree specialized for the
// one query the MWVD refinement loop issues millions of times: nearest site
// to a cell center, in squared distance. The median-layout permutation is
// computed once by a quickselect and then *gathered* — coordinates are
// copied into contiguous xs/ys slices in traversal order, so the hot descent
// reads two flat float64 arrays instead of chasing idx→pts indirections, and
// Nearest2 skips the final square root the refinement would immediately
// re-square.
type FlatTree struct {
	xs, ys []float64 // coordinates in median (traversal) layout
	ids    []int32   // median layout -> original point index
}

// BuildFlat constructs a FlatTree over pts. The input slice is not
// retained — coordinates are copied into the tree's own SoA arrays.
func BuildFlat(pts []geom.Point) *FlatTree {
	ft := &FlatTree{
		xs:  make([]float64, len(pts)),
		ys:  make([]float64, len(pts)),
		ids: make([]int32, len(pts)),
	}
	for k, pi := range medianLayout(pts) {
		ft.xs[k] = pts[pi].X
		ft.ys[k] = pts[pi].Y
		ft.ids[k] = pi
	}
	return ft
}

// Nearest2 returns the original index of the closest point to (x, y) and the
// squared distance to it, or (-1, +Inf) for an empty tree.
func (t *FlatTree) Nearest2(x, y float64) (int32, float64) {
	if len(t.ids) == 0 {
		return -1, math.Inf(1)
	}
	best := int32(-1)
	bestD2 := math.Inf(1)
	t.nearest2(0, len(t.ids), 0, x, y, &best, &bestD2)
	return best, bestD2
}

func (t *FlatTree) nearest2(lo, hi, axis int, x, y float64, best *int32, bestD2 *float64) {
	if hi <= lo {
		return
	}
	mid := (lo + hi) / 2
	dx := x - t.xs[mid]
	dy := y - t.ys[mid]
	if d2 := dx*dx + dy*dy; d2 < *bestD2 {
		*bestD2 = d2
		*best = t.ids[mid]
	}
	delta := dx
	if axis == 1 {
		delta = dy
	}
	fLo, fHi, sLo, sHi := lo, mid, mid+1, hi
	if delta > 0 {
		fLo, fHi, sLo, sHi = mid+1, hi, lo, mid
	}
	t.nearest2(fLo, fHi, 1-axis, x, y, best, bestD2)
	if delta*delta < *bestD2 {
		t.nearest2(sLo, sHi, 1-axis, x, y, best, bestD2)
	}
}
