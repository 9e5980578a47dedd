// Package polyclip implements the polygon intersection routines the MOLQ
// pipeline needs. It is a from-scratch replacement for the GPC library the
// paper used: the overlapped Voronoi regions (OVRs) produced from ordinary
// Voronoi diagrams are intersections of convex cells and therefore convex, so
// convex–convex clipping (Sutherland–Hodgman against each halfplane of the
// clip polygon) is exact for every region the RRB approach manipulates.
//
// Two intersection kernels are provided behind one entry point:
//
//   - the Sutherland–Hodgman halfplane clipper (O(n·m), robust against every
//     degeneracy because each halfplane is handled independently), and
//   - an O(n+m) convex–convex kernel (onm.go) in the counterclockwise
//     edge-advance style of O'Rourke, used for larger operands; it bails out
//     to the halfplane clipper whenever a predicate lands inside its guard
//     tolerance, so degenerate configurations always take the robust path.
//
// The hot ⊕ sweep calls the buffered variants (ConvexIntersectBuf /
// ClipToRectBuf / ClipHalfplaneBuf) with a reusable ClipBuf, which makes a
// region intersection allocation-free; the unbuffered functions remain for
// callers that keep the result and draw scratch from an internal pool.
package polyclip

import (
	"math"
	"sync"

	"molq/internal/geom"
)

// clipEps is the tolerance used when classifying a vertex against a clipping
// halfplane. It is scaled by edge length inside the clipper.
const clipEps = 1e-9

// MinArea is the positive-area threshold below which an operand polygon is
// treated as a degenerate sliver that cannot contribute to an intersection.
// Callers of ConvexIntersectTrustedBuf use it to pre-screen operands whose
// areas they have cached.
const MinArea = clipEps

// ClipBuf holds the scratch buffers one clipping call chain ping-pongs
// between. A ClipBuf is not safe for concurrent use; give each goroutine its
// own (the ⊕ sweep keeps one per sweepScratch, Compute one per call). The
// zero value is ready for use, and buffers grow to the working-set size after
// a few calls, after which clipping performs no allocations.
//
// Results returned by the *Buf functions alias the ClipBuf's internal storage
// and are only valid until the next call using the same buffer; callers that
// keep a result must Clone it.
type ClipBuf struct {
	a, b geom.Polygon  // Sutherland–Hodgman ping-pong buffers
	out  geom.Polygon  // O(n+m) kernel output
	rect [4]geom.Point // scratch for ClipToRectBuf's clip rectangle
}

// clipBufPool backs the unbuffered convenience wrappers.
var clipBufPool = sync.Pool{New: func() any { return new(ClipBuf) }}

// ConvexIntersect returns the intersection of two convex polygons, both given
// in counterclockwise order. The result is a convex counterclockwise polygon,
// or an empty polygon when the inputs do not overlap (or overlap only in a
// degenerate zero-area set). The result never aliases either input.
func ConvexIntersect(subject, clip geom.Polygon) geom.Polygon {
	buf := clipBufPool.Get().(*ClipBuf)
	out := ConvexIntersectBuf(buf, subject, clip)
	if out != nil {
		out = out.Clone()
	}
	clipBufPool.Put(buf)
	return out
}

// ConvexIntersectBuf is ConvexIntersect writing into buf's scratch storage:
// the returned polygon aliases buf and is valid only until buf's next use.
func ConvexIntersectBuf(buf *ClipBuf, subject, clip geom.Polygon) geom.Polygon {
	if subject.IsEmpty() || clip.IsEmpty() {
		return nil
	}
	// A zero-area operand (degenerate sliver) cannot contribute a
	// positive-area intersection, and its zero-length edges would otherwise
	// be skipped by the halfplane clipper, leaving the subject
	// under-constrained.
	subjectArea, clipArea := subject.Area(), clip.Area()
	if subjectArea <= clipEps || clipArea <= clipEps {
		return nil
	}
	return ConvexIntersectTrustedBuf(buf, subject, clip, subjectArea, clipArea)
}

// ConvexIntersectTrustedBuf is ConvexIntersectBuf minus the operand checks:
// the caller guarantees both polygons are non-empty with Area() > MinArea,
// and passes those areas as subjectArea and clipArea (exactly Area(), since
// the O(n+m) kernel's sanity bound reads them). The ⊕ sweep intersects the
// same regions against many partners and caches each region's area in its
// flat layout, so screening there turns two full vertex scans per candidate
// pair into two float comparisons, and the kernel rescans neither operand.
func ConvexIntersectTrustedBuf(buf *ClipBuf, subject, clip geom.Polygon, subjectArea, clipArea float64) geom.Polygon {
	if len(subject) >= onmMinVerts && len(clip) >= onmMinVerts {
		if out, ok := convexIntersectONM(buf, subject, clip, subjectArea, clipArea); ok {
			return out
		}
	}
	return convexIntersectSH(buf, subject, clip)
}

// convexIntersectSH runs the Sutherland–Hodgman halfplane cascade inside
// buf's ping-pong buffers. Operand checks (emptiness, zero area) are the
// caller's job.
func convexIntersectSH(buf *ClipBuf, subject, clip geom.Polygon) geom.Polygon {
	cur := append(buf.a[:0], subject...)
	oth := buf.b[:0]
	curIsA := true
	n := len(clip)
	for i := 0; i < n && len(cur) >= 3; i++ {
		a := clip[i]
		b := clip[(i+1)%n]
		oth = clipHalfplaneInto(oth[:0], cur, a, b)
		cur, oth = oth, cur
		curIsA = !curIsA
	}
	cur = dedupInPlace(cur)
	// Hand the (possibly grown) buffers back so capacity is kept.
	if curIsA {
		buf.a, buf.b = cur, oth
	} else {
		buf.a, buf.b = oth, cur
	}
	if cur.IsEmpty() || cur.Area() <= clipEps {
		return nil
	}
	return cur
}

// ClipToRectBuf is ClipToRect writing into buf's scratch storage; the result
// aliases buf and is valid only until buf's next use.
//
// A subject lying inside the closed rectangle skips the cascade: against an
// axis-aligned edge Orient is one exact-signed product, so every vertex
// classifies inside, each of the four halfplane passes copies the polygon
// through unchanged, and copying it once gives the same result. Most Voronoi
// cells lie inside the search space, so this is Compute's common case.
func ClipToRectBuf(buf *ClipBuf, subject geom.Polygon, r geom.Rect) geom.Polygon {
	buf.rect = r.Corners()
	clip := geom.Polygon(buf.rect[:])
	if subject.IsEmpty() {
		return nil
	}
	subjectArea, clipArea := subject.Area(), clip.Area()
	if subjectArea <= clipEps || clipArea <= clipEps {
		return nil
	}
	for _, p := range subject {
		if p.X < r.Min.X || p.X > r.Max.X || p.Y < r.Min.Y || p.Y > r.Max.Y {
			return ConvexIntersectTrustedBuf(buf, subject, clip, subjectArea, clipArea)
		}
	}
	out := dedupInPlace(append(buf.a[:0], subject...))
	buf.a = out
	if out.IsEmpty() || out.Area() <= clipEps {
		return nil
	}
	return out
}

// ClipHalfplane clips a convex polygon against the closed halfplane to the
// left of the directed line a→b, returning nil when nothing (of positive
// area) remains. It is used directly by the weighted-Voronoi MBR derivation.
// The result never aliases pg — even when the clip edge is degenerate — so
// callers may mutate it freely.
func ClipHalfplane(pg geom.Polygon, a, b geom.Point) geom.Polygon {
	buf := clipBufPool.Get().(*ClipBuf)
	out := ClipHalfplaneBuf(buf, pg, a, b)
	if out != nil {
		out = out.Clone()
	}
	clipBufPool.Put(buf)
	return out
}

// ClipHalfplaneBuf is ClipHalfplane writing into buf's scratch storage; the
// result aliases buf and is valid only until buf's next use.
func ClipHalfplaneBuf(buf *ClipBuf, pg geom.Polygon, a, b geom.Point) geom.Polygon {
	out := dedupInPlace(clipHalfplaneInto(buf.a[:0], pg, a, b))
	buf.a = out
	if out.IsEmpty() || out.Area() <= clipEps {
		return nil
	}
	return out
}

// clipHalfplaneInto clips pg against the halfplane to the left of the
// directed line a→b (the interior side for a counterclockwise clip polygon),
// appending the surviving vertices to dst and returning it. When the clip
// edge is degenerate (|ab| below tolerance) the halfplane is undefined and pg
// is copied through unclipped — never returned by reference, so the caller
// can mutate the output without corrupting pg's backing array.
func clipHalfplaneInto(dst geom.Polygon, pg geom.Polygon, a, b geom.Point) geom.Polygon {
	n := len(pg)
	if n == 0 {
		return dst
	}
	ab := b.Sub(a)
	scale := math.Sqrt(ab.Dot(ab)) // Sqrt(Dot): see onm.go on why not Hypot
	if scale < clipEps {
		return append(dst, pg...)
	}
	tol := clipEps * scale
	prev := pg[n-1]
	prevSide := geom.Orient(a, b, prev)
	for i := 0; i < n; i++ {
		cur := pg[i]
		curSide := geom.Orient(a, b, cur)
		switch {
		case curSide >= -tol: // current inside (or on boundary)
			if prevSide < -tol {
				dst = append(dst, lineIntersect(a, b, prev, cur))
			}
			dst = append(dst, cur)
		case prevSide >= -tol: // leaving the halfplane
			dst = append(dst, lineIntersect(a, b, prev, cur))
		}
		prev, prevSide = cur, curSide
	}
	return dst
}

// dedupInPlace removes consecutive duplicate vertices (within Eps) including
// a duplicate closing vertex, compacting pg in place without allocating.
func dedupInPlace(pg geom.Polygon) geom.Polygon {
	return pg.DedupInPlace()
}

// lineIntersect returns the intersection of the infinite line a→b with the
// segment p→q. The caller guarantees p and q straddle the line.
func lineIntersect(a, b, p, q geom.Point) geom.Point {
	d := b.Sub(a)
	e := q.Sub(p)
	denom := d.Cross(e)
	if denom == 0 {
		return p
	}
	// Solve (p + t·e − a) × d = 0  ⇒  t = ((p−a) × d) / (d × e).
	t := p.Sub(a).Cross(d) / denom
	return geom.Lerp(p, q, clamp01(t))
}

func clamp01(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}
