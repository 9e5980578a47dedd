package fermat

import (
	"math"
	"sort"

	"molq/internal/geom"
)

// weiszfeld runs the iterative scheme of Eq 8/9 starting from the weighted
// centroid. Each iteration evaluates the Eq-10 lower bound; the loop stops
// when the relative deviation (cost − lb)/lb drops below ε, when the bound
// proves the group cannot beat costBound (Alg 5 pruning), or at MaxIter.
func weiszfeld(pts []WeightedPoint, opt Options, costBound float64) Result {
	return weiszfeldDynamic(pts, opt, func(lb float64) bool { return lb >= costBound })
}

// weiszfeldDynamic is weiszfeld with the pruning test asked of every
// iterate's lower bound — the batch drivers test it against the shared
// atomic bound, so one worker's discovery immediately tightens every other
// worker's pruning.
func weiszfeldDynamic(pts []WeightedPoint, opt Options, prune func(lb float64) bool) Result {
	q := centroid(pts)
	scale := spread(pts)
	lambda := opt.Acceleration
	var lb float64
	iters := 0
	for ; iters < opt.MaxIter; iters++ {
		next := weiszfeldStep(pts, q, scale)
		if lambda > 1 {
			// Ostresh over-relaxation: step λ times further along the
			// Weiszfeld direction (monotone for λ < 2).
			next = geom.Lerp(q, next, lambda)
		}
		q = next
		lb = LowerBound(q, pts)
		if prune(lb) {
			return Result{Loc: q, Cost: Cost(q, pts), LowerBound: lb, Iters: iters + 1, Pruned: true}
		}
		if lb > 0 {
			cost := Cost(q, pts)
			if (cost-lb)/lb <= opt.Epsilon {
				return Result{Loc: q, Cost: cost, LowerBound: lb, Iters: iters + 1}
			}
		}
	}
	return Result{Loc: q, Cost: Cost(q, pts), LowerBound: lb, Iters: iters}
}

// weiszfeldStep computes f(q, G) of Eq 8, handling the singular case where q
// coincides with a demand point: if that point is optimal it is a fixed
// point; otherwise the iterate is nudged along the pulling force.
func weiszfeldStep(pts []WeightedPoint, q geom.Point, scale float64) geom.Point {
	var num geom.Point
	den := 0.0
	for i, wp := range pts {
		d := q.Dist(wp.P)
		if d < 1e-14*scale {
			return escapeSingularity(pts, i, q, scale)
		}
		f := wp.W / d
		num = num.Add(wp.P.Scale(f))
		den += f
	}
	if den == 0 {
		return q
	}
	return num.Scale(1 / den)
}

// escapeSingularity handles q landing on demand point i: when the residual
// pull of the other points is at most w_i the point is optimal and returned
// unchanged (Eq 8's "otherwise q" branch); otherwise q is displaced along the
// pull so the iteration can continue (Vardi–Zhang style).
func escapeSingularity(pts []WeightedPoint, i int, q geom.Point, scale float64) geom.Point {
	var pull geom.Point
	for j, wp := range pts {
		if j == i {
			continue
		}
		d := q.Dist(wp.P)
		if d == 0 {
			continue
		}
		pull = pull.Add(wp.P.Sub(q).Scale(wp.W / d))
	}
	n := pull.Norm()
	if n <= pts[i].W {
		return q
	}
	return q.Add(pull.Scale(1e-7 * scale / n))
}

// spread returns a length scale of the instance (max pairwise coordinate
// extent), used to calibrate singularity tolerances.
func spread(pts []WeightedPoint) float64 {
	r := geom.EmptyRect()
	for _, wp := range pts {
		r = r.ExtendPoint(wp.P)
	}
	s := math.Max(r.Width(), r.Height())
	if s == 0 {
		return 1
	}
	return s
}

// LowerBound evaluates the Eq-10 rectangular lower bound at the iterate l:
//
//	lb(l) = Σ_k min_x Σ_i w_i · (|l_k − p_{i,k}| / d(l, p_i)) · |x − p_{i,k}|
//
// Each per-axis minimisation is a weighted 1-D median problem. The value
// never exceeds the optimal Fermat-Weber cost, so it certifies both the ε
// stopping rule and Algorithm 5's pruning decisions.
func LowerBound(l geom.Point, pts []WeightedPoint) float64 {
	n := len(pts)
	coords := make([]float64, n)
	weights := make([]float64, n)
	total := 0.0
	// X axis.
	for i, wp := range pts {
		d := l.Dist(wp.P)
		var c float64
		if d > 0 {
			c = wp.W * math.Abs(l.X-wp.P.X) / d
		}
		coords[i], weights[i] = wp.P.X, c
	}
	total += weightedMedianCost(coords, weights)
	// Y axis.
	for i, wp := range pts {
		d := l.Dist(wp.P)
		var c float64
		if d > 0 {
			c = wp.W * math.Abs(l.Y-wp.P.Y) / d
		}
		coords[i], weights[i] = wp.P.Y, c
	}
	total += weightedMedianCost(coords, weights)
	return total
}

// weightedMedianCost returns min_x Σ c_i |x − t_i|. It sorts the coordinates
// and evaluates the objective at the weighted median.
func weightedMedianCost(t, c []float64) float64 {
	n := len(t)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return t[idx[a]] < t[idx[b]] })
	total := 0.0
	for _, w := range c {
		total += w
	}
	if total == 0 {
		return 0
	}
	acc := 0.0
	med := t[idx[n-1]]
	for _, i := range idx {
		acc += c[i]
		if acc >= total/2 {
			med = t[i]
			break
		}
	}
	val := 0.0
	for i := range t {
		val += c[i] * math.Abs(med-t[i])
	}
	return val
}
