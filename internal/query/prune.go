package query

import (
	"math"

	"molq/internal/core"
	"molq/internal/geom"
)

// MWGD evaluates the query objective, Eq 3 with each type's object weight
// function family, at an arbitrary location by linear scan: per type the
// least weighted distance, w^t·w^o·d (multiplicative) or w^t·(d + w^o)
// (additive), summed over the types. An empty set contributes nothing. It
// seeds the overlap-pruning upper bound and scores candidate sites.
func (in *Input) MWGD(q geom.Point) float64 {
	total := 0.0
	for ti, set := range in.Sets {
		if len(set) == 0 {
			continue
		}
		additive := in.kind(ti) == AdditiveObjWeights
		best := math.Inf(1)
		for _, o := range set {
			var v float64
			if additive {
				v = o.TypeWeight * (q.Dist(o.Loc) + o.ObjWeight)
			} else {
				v = o.TypeWeight * o.ObjWeight * q.Dist(o.Loc)
			}
			if v < best {
				best = v
			}
		}
		total += best
	}
	return total
}

// upperBoundSamples picks candidate locations whose MWGD values seed the
// pruning bound: the search-space center plus up to 16 object locations of
// the smallest set (object locations are natural candidates — the optimum
// gravitates toward them).
func (in *Input) upperBound() float64 {
	u := in.MWGD(in.Bounds.Center())
	smallest := 0
	for ti := range in.Sets {
		if len(in.Sets[ti]) < len(in.Sets[smallest]) {
			smallest = ti
		}
	}
	set := in.Sets[smallest]
	step := 1
	if len(set) > 16 {
		step = len(set) / 16
	}
	for i := 0; i < len(set); i += step {
		if v := in.MWGD(set[i].Loc); v < u {
			u = v
		}
	}
	return u
}

// rectDist returns the distance from the nearest point of r to p.
func rectDist(r geom.Rect, p geom.Point) float64 {
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}

// pruneFunc builds the overlap-time combination filter (the paper's Sec 8
// future-work optimisation): an OVR is discarded when even the most
// optimistic location inside its MBR costs more than the known upper bound
// of the optimum. The bound over a box uses the point-to-rectangle distance,
// which lower-bounds the true distance for every location in the box; for a
// partial combination the remaining types contribute ≥ 0, so the test stays
// sound mid-chain.
func (in *Input) pruneFunc(upper float64) core.PruneFunc {
	return func(mbr geom.Rect, pois []core.Object) bool {
		lb := 0.0
		for _, o := range pois {
			d := rectDist(mbr, o.Loc)
			if in.kind(o.Type) == AdditiveObjWeights {
				lb += o.TypeWeight * (d + o.ObjWeight)
			} else {
				lb += o.TypeWeight * o.ObjWeight * d
			}
			if lb > upper {
				return true
			}
		}
		return false
	}
}
