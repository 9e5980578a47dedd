package polyclip

import (
	"math"

	"molq/internal/geom"
)

// This file implements the linear-time convex–convex intersection kernel: the
// counterclockwise edge-advance ("rotating calipers chase") algorithm of
// O'Rourke et al., which walks both boundaries once and therefore runs in
// O(n+m) instead of the Sutherland–Hodgman cascade's O(n·m). The Voronoi
// cells the RRB pipeline intersects (Sec 5.2) are convex and in general
// position almost everywhere, which is exactly the regime the kernel is fast
// in; every predicate is guarded by a tolerance band and any hit inside the
// band abandons the kernel so the robust halfplane cascade decides instead.
// The fallback keeps degenerate configurations — collinear overlapping edges
// (common along the shared search-space boundary), touching vertices,
// containment without boundary crossings — on the exact path.

// onmMinVerts is the operand size at which the O(n+m) kernel takes over.
// Triangles and quads stay on the halfplane cascade: at that size the
// cascade's constant factor wins and several exact unit-test fixtures rely on
// its vertex ordering.
const onmMinVerts = 5

// onmGuard is the relative half-width of the predicate guard band. It is
// deliberately far wider than clipEps: a configuration within 1e-7 of
// degeneracy costs one wasted kernel attempt, whereas a misclassified
// predicate would corrupt the advance state.
const onmGuard = 1e-7

// convexIntersectONM intersects two convex counterclockwise polygons in
// O(n+m), writing the result into buf.out. areaP and areaQ are the operands'
// Area(), which callers have at hand; they only feed the closing sanity
// bound. ok=false means the kernel declined (a predicate fell inside its
// guard band, an edge was degenerate, or the boundaries never properly
// crossed) and the caller must use the halfplane cascade; ok=true with a nil
// polygon means a decisively empty (zero-area) intersection.
//
// Each step advances exactly one edge, so the loop carries both current
// edges — endpoints, direction and length — forward and recomputes only the
// one that moved, wrapping its index with a compare.
func convexIntersectONM(buf *ClipBuf, p, q geom.Polygon, areaP, areaQ float64) (geom.Polygon, bool) {
	n, m := len(p), len(q)
	out := buf.out[:0]
	defer func() { buf.out = out[:cap(out)][:0] }()

	const (
		unknown = iota
		pIn     // P's boundary is currently the inner chain
		qIn     // Q's boundary is currently the inner chain
	)
	inflag := unknown
	a, b := 0, 0 // current edge = predecessor vertex → vertex a (resp. b)
	aAdv, bAdv := 0, 0
	pa0, pa1 := p[n-1], p[0]
	qb0, qb1 := q[m-1], q[0]
	ae := pa1.Sub(pa0)
	be := qb1.Sub(qb0)
	// Sqrt(Dot) instead of Norm (math.Hypot): the coordinates are search
	// space scaled, so Hypot's overflow guard is pure overhead — and the
	// lengths only size fuzzy guard bands, which an ulp cannot flip
	// meaningfully (anything near a band falls back to the exact cascade).
	lenA := math.Sqrt(ae.Dot(ae))
	lenB := math.Sqrt(be.Dot(be))
	for aAdv <= 2*n && bAdv <= 2*m {
		if lenA < clipEps || lenB < clipEps {
			return nil, false // degenerate edge: undefined direction
		}
		cross := ae.Cross(be)
		if math.Abs(cross) <= onmGuard*lenA*lenB {
			return nil, false // near-parallel edges: ambiguous advance rule
		}
		// Distance-scaled guard bands: Orient(u, v, w) = |uv| · dist(w, line).
		guardA := onmGuard * lenA * (1 + lenA + lenB)
		guardB := onmGuard * lenB * (1 + lenA + lenB)
		aHB := geom.Orient(qb0, qb1, pa1) // head of P's edge vs Q's edge line
		bHA := geom.Orient(pa0, pa1, qb1) // head of Q's edge vs P's edge line
		if math.Abs(aHB) <= guardB || math.Abs(bHA) <= guardA {
			return nil, false
		}
		// Proper-crossing test of the two current edges: both tails must also
		// classify decisively against the opposite line.
		aTB := geom.Orient(qb0, qb1, pa0)
		bTA := geom.Orient(pa0, pa1, qb0)
		if math.Abs(aTB) <= guardB || math.Abs(bTA) <= guardA {
			return nil, false
		}
		if (aTB > 0) != (aHB > 0) && (bTA > 0) != (bHA > 0) {
			// Proper crossing: record it and (re)classify the inner chain.
			if inflag == unknown {
				aAdv, bAdv = 0, 0 // restart cycle counting at the first crossing
			}
			if aHB > 0 {
				inflag = pIn
			} else {
				inflag = qIn
			}
			out = append(out, lineIntersect(qb0, qb1, pa0, pa1))
		}
		// Advance rule: move the edge whose head cannot yet see the other
		// edge's progress, emitting inner-chain vertices as they are passed.
		var advanceA bool
		if cross >= 0 {
			advanceA = bHA > 0
		} else {
			advanceA = !(aHB > 0)
		}
		if advanceA {
			if inflag == pIn {
				out = append(out, pa1)
			}
			if a++; a == n {
				a = 0
			}
			aAdv++
			pa0, pa1 = pa1, p[a]
			ae = pa1.Sub(pa0)
			lenA = math.Sqrt(ae.Dot(ae))
		} else {
			if inflag == qIn {
				out = append(out, qb1)
			}
			if b++; b == m {
				b = 0
			}
			bAdv++
			qb0, qb1 = qb1, q[b]
			be = qb1.Sub(qb0)
			lenB = math.Sqrt(be.Dot(be))
		}
		if inflag != unknown && aAdv >= n && bAdv >= m {
			break // both boundaries wrapped past the first crossing: closed
		}
	}
	if inflag == unknown {
		// Boundaries never properly crossed: disjoint, containment, or a
		// touching configuration. Convexity lets two guarded seed-vertex
		// tests decide the first two: with no crossings, either one polygon
		// contains the other (then its seed vertex is strictly interior) or
		// the interiors are disjoint (then both seeds are strictly outside).
		// Touching configurations put a seed inside a guard band, and the
		// halfplane cascade decides exactly as before. This epilogue spares
		// the ⊕ sweep the full O(n·m) cascade on the many candidate pairs
		// whose MBRs overlap but whose regions do not.
		switch pin, qin := classifyInConvex(p[0], q), classifyInConvex(q[0], p); {
		case pin > 0:
			out = append(out[:0], p...) // P ⊂ Q: intersection is P
			return out, true
		case qin > 0:
			out = append(out[:0], q...) // Q ⊂ P: intersection is Q
			return out, true
		case pin < 0 && qin < 0:
			return nil, true // decisively disjoint
		default:
			return nil, false // a seed is too close to a boundary
		}
	}
	if aAdv > 2*n || bAdv > 2*m {
		return nil, false // advance loop failed to close
	}
	res := dedupInPlace(out)
	out = res
	if res.IsEmpty() {
		return nil, true
	}
	area := res.Area()
	if area <= clipEps {
		return nil, true
	}
	// Sanity bound: the intersection can never out-measure an operand. A
	// violation means the advance state was silently corrupted — decline.
	limit := math.Min(areaP, areaQ)
	if area > limit*(1+1e-9)+clipEps {
		return nil, false
	}
	return res, true
}

// classifyInConvex reports whether s lies decisively inside (+1) or outside
// (-1) the convex counterclockwise polygon pg, or too close to its boundary
// to certify either (0). The guard band is scaled like the kernel's other
// predicates: Orient(a, b, s) = |ab| · dist(s, line).
func classifyInConvex(s geom.Point, pg geom.Polygon) int {
	n := len(pg)
	inside := 1
	for i := 0; i < n; i++ {
		a := pg[i]
		b := pg[(i+1)%n]
		e := b.Sub(a)
		le := math.Sqrt(e.Dot(e))
		if le < clipEps {
			return 0 // degenerate edge: undefined side
		}
		o := geom.Orient(a, b, s)
		tol := onmGuard * le * (1 + le)
		switch {
		case o <= -tol:
			return -1 // decisively outside this edge's halfplane
		case o < tol:
			inside = 0 // within the band: cannot certify interior
		}
	}
	return inside
}
