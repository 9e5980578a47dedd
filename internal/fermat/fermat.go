// Package fermat solves weighted Fermat-Weber problems in the plane: given
// points p_i with positive weights w_i, find the location q minimising
// Σ w_i · d(q, p_i). It implements the techniques of Sec 2.3 and Sec 5.4 of
// the paper:
//
//   - the Weiszfeld iterative scheme (Eq 8/9) with singularity handling,
//   - the rectangular lower bound of Eq 10 (Love–Morris) used as the ε
//     stopping rule,
//   - exact fast paths for 1, 2 and 3 points and for collinear point sets,
//   - the cost-bound batch optimiser of Algorithm 5.
package fermat

import (
	"errors"
	"math"
	"sort"

	"molq/internal/geom"
)

// WeightedPoint is a Fermat-Weber demand point. Weight must be positive; in
// the MOLQ pipeline it is the multiplicative combination of the type weight
// w^t and the object weight w^o.
type WeightedPoint struct {
	P geom.Point
	W float64
}

// Options control the iterative solver.
type Options struct {
	// Epsilon is the relative error bound ε of the stopping rule: iteration
	// stops once (cost − lb)/lb ≤ ε where lb is the Eq-10 lower bound.
	// Zero means the DefaultEpsilon.
	Epsilon float64
	// MaxIter caps the number of Weiszfeld iterations (safety net). Zero
	// means DefaultMaxIter.
	MaxIter int
	// Acceleration over-relaxes each Weiszfeld step:
	// q' = q + λ·(f(q) − q) with λ = Acceleration. Ostresh (1978) proved
	// convergence of the over-relaxed iteration; under this package's
	// Eq-10 stopping rule the sweet spot is λ ≈ 1.2–1.3 (≈25% fewer
	// iterations on random instances) — larger values overshoot, which
	// weakens the per-iterate lower bound and delays the stopping test.
	// Zero means 1 (the paper's plain Eq-8 iteration); values are clamped
	// to [1, 1.5].
	Acceleration float64
}

// Defaults used when Options fields are zero.
const (
	DefaultEpsilon = 1e-3
	DefaultMaxIter = 10000
)

func (o Options) norm() Options {
	if o.Epsilon <= 0 {
		o.Epsilon = DefaultEpsilon
	}
	if o.MaxIter <= 0 {
		o.MaxIter = DefaultMaxIter
	}
	if o.Acceleration < 1 {
		o.Acceleration = 1
	}
	if o.Acceleration > 1.5 {
		o.Acceleration = 1.5
	}
	return o
}

// Result reports the outcome of a solve.
type Result struct {
	Loc        geom.Point
	Cost       float64
	LowerBound float64 // last Eq-10 lower bound (0 for exact fast paths)
	Iters      int     // Weiszfeld iterations performed
	Exact      bool    // solved by a closed-form / direct fast path
	Pruned     bool    // abandoned early by a cost bound (Alg 5)
}

// ErrNoPoints is returned when a solve receives an empty point set.
var ErrNoPoints = errors.New("fermat: empty point set")

// Cost evaluates the Fermat-Weber objective Σ w_i · d(q, p_i).
func Cost(q geom.Point, pts []WeightedPoint) float64 {
	sum := 0.0
	for _, wp := range pts {
		sum += wp.W * q.Dist(wp.P)
	}
	return sum
}

// Solve finds the weighted Fermat-Weber point of pts.
func Solve(pts []WeightedPoint, opt Options) (Result, error) {
	return solveBounded(pts, opt, math.Inf(1))
}

// SolveBounded behaves like Solve but abandons the iteration as soon as the
// Eq-10 lower bound proves the optimum cannot beat costBound (Algorithm 5's
// in-iteration pruning). A pruned result has Pruned=true and carries the last
// iterate. The pair prefilter of Alg 5 is the caller's responsibility (see
// FlatProblem.rejects).
func SolveBounded(pts []WeightedPoint, opt Options, costBound float64) (Result, error) {
	return solveBounded(pts, opt, costBound)
}

func solveBounded(pts []WeightedPoint, opt Options, costBound float64) (Result, error) {
	opt = opt.norm()
	switch len(pts) {
	case 0:
		return Result{}, ErrNoPoints
	case 1:
		return Result{Loc: pts[0].P, Cost: 0, Exact: true}, nil
	case 2:
		return solve2(pts), nil
	}
	if line, ok := collinear(pts); ok {
		return solveCollinear(pts, line), nil
	}
	if len(pts) == 3 {
		return solve3(pts), nil
	}
	return weiszfeld(pts, opt, costBound), nil
}

// solve2 handles the two-point problem: the optimum sits at the heavier
// point (any point of the segment for equal weights).
func solve2(pts []WeightedPoint) Result {
	a, b := pts[0], pts[1]
	loc := a.P
	if b.W > a.W {
		loc = b.P
	}
	return Result{Loc: loc, Cost: Cost(loc, pts), Exact: true}
}

// line describes the common carrier of a collinear point set.
type line struct {
	origin geom.Point
	dir    geom.Point // unit direction
}

// collinear reports whether all points lie on one line (within a relative
// tolerance) and returns that line.
func collinear(pts []WeightedPoint) (line, bool) {
	// Pick the farthest point from pts[0] as the direction anchor.
	origin := pts[0].P
	far, farD := origin, 0.0
	for _, wp := range pts[1:] {
		if d := origin.Dist2(wp.P); d > farD {
			far, farD = wp.P, d
		}
	}
	if farD == 0 {
		// All points coincide.
		return line{origin: origin, dir: geom.Pt(1, 0)}, true
	}
	dir := far.Sub(origin).Scale(1 / math.Sqrt(farD))
	tol := math.Sqrt(farD) * 1e-9
	for _, wp := range pts {
		v := wp.P.Sub(origin)
		if math.Abs(v.Cross(dir)) > tol {
			return line{}, false
		}
	}
	return line{origin: origin, dir: dir}, true
}

// isCollinear reports whether a group takes the exact collinear fast path.
func isCollinear(g Group) bool {
	_, ok := collinear(g)
	return ok
}

// solveCollinear computes the weighted median along the carrier line, which
// is an exact optimum in linear(ithmic) time (Chandrasekaran & Tamir).
func solveCollinear(pts []WeightedPoint, l line) Result {
	type proj struct {
		t float64
		w float64
	}
	ps := make([]proj, len(pts))
	total := 0.0
	for i, wp := range pts {
		ps[i] = proj{t: wp.P.Sub(l.origin).Dot(l.dir), w: wp.W}
		total += wp.W
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].t < ps[j].t })
	acc := 0.0
	med := ps[len(ps)-1].t
	for _, pr := range ps {
		acc += pr.w
		if acc >= total/2 {
			med = pr.t
			break
		}
	}
	loc := l.origin.Add(l.dir.Scale(med))
	return Result{Loc: loc, Cost: Cost(loc, pts), Exact: true}
}

// solve3 solves the weighted three-point problem exactly: a closed-form
// vertex-dominance test decides whether a vertex is optimal; otherwise the
// optimum is the interior stationary point, found by a damped Newton
// iteration on the strictly convex cost (quadratic convergence, constant
// work in practice — this substitutes for the geometric construction of
// Jalal & Krarup cited by the paper).
func solve3(pts []WeightedPoint) Result {
	// Vertex dominance: vertex i is optimal iff
	// ‖Σ_{j≠i} w_j·u_ij‖ ≤ w_i, with u_ij the unit vector from p_i to p_j.
	for i := 0; i < 3; i++ {
		var pull geom.Point
		ok := true
		for j := 0; j < 3; j++ {
			if j == i {
				continue
			}
			d := pts[j].P.Dist(pts[i].P)
			if d == 0 {
				ok = false // coincident points: fall through to Newton path
				break
			}
			pull = pull.Add(pts[j].P.Sub(pts[i].P).Scale(pts[j].W / d))
		}
		if ok && pull.Norm() <= pts[i].W+1e-12 {
			loc := pts[i].P
			return Result{Loc: loc, Cost: Cost(loc, pts), Exact: true}
		}
	}
	res := newton(pts, centroid(pts))
	res.Exact = true
	return res
}

func centroid(pts []WeightedPoint) geom.Point {
	var c geom.Point
	tw := 0.0
	for _, wp := range pts {
		c = c.Add(wp.P.Scale(wp.W))
		tw += wp.W
	}
	if tw == 0 {
		return pts[0].P
	}
	return c.Scale(1 / tw)
}

// newton minimises the Fermat-Weber cost from start using a damped Newton
// method. The caller guarantees the optimum is interior (no vertex optimal).
func newton(pts []WeightedPoint, start geom.Point) Result {
	q := start
	scale := 0.0
	for _, wp := range pts {
		scale = math.Max(scale, wp.P.Sub(start).Norm())
	}
	if scale == 0 {
		scale = 1
	}
	const maxIter = 100
	iters := 0
	for ; iters < maxIter; iters++ {
		var g geom.Point
		var hxx, hxy, hyy float64
		singular := false
		for _, wp := range pts {
			d := q.Dist(wp.P)
			if d < 1e-15*scale {
				singular = true
				break
			}
			r := q.Sub(wp.P).Scale(1 / d)
			g = g.Add(r.Scale(wp.W))
			f := wp.W / d
			hxx += f * (1 - r.X*r.X)
			hxy += f * (-r.X * r.Y)
			hyy += f * (1 - r.Y*r.Y)
		}
		if singular {
			// Nudge off the singular point and retry.
			q = q.Add(geom.Pt(1e-9*scale, 1e-9*scale))
			continue
		}
		if g.Norm() <= 1e-13*totalWeight(pts) {
			break
		}
		det := hxx*hyy - hxy*hxy
		var step geom.Point
		if det > 1e-18 {
			step = geom.Point{
				X: -(hyy*g.X - hxy*g.Y) / det,
				Y: -(-hxy*g.X + hxx*g.Y) / det,
			}
		} else {
			step = g.Scale(-scale / math.Max(g.Norm(), 1e-300))
		}
		// Backtracking line search guards the (rare) non-contraction steps.
		base := Cost(q, pts)
		t := 1.0
		for k := 0; k < 40; k++ {
			cand := q.Add(step.Scale(t))
			if Cost(cand, pts) < base {
				q = cand
				break
			}
			t /= 2
			if k == 39 {
				return Result{Loc: q, Cost: base, Iters: iters}
			}
		}
	}
	return Result{Loc: q, Cost: Cost(q, pts), Iters: iters}
}

func totalWeight(pts []WeightedPoint) float64 {
	tw := 0.0
	for _, wp := range pts {
		tw += wp.W
	}
	return tw
}
