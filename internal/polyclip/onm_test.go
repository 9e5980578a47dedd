package polyclip

import (
	"math"
	"math/rand"
	"testing"

	"molq/internal/geom"
)

// TestClipHalfplaneDegenerateNoAlias mutates every vertex of the result of a
// degenerate-edge clip (|ab| < clipEps, where the halfplane is undefined and
// the input passes through unclipped) and checks the source polygon survives.
// The original implementation returned the input by reference in that branch,
// so a caller mutating the "clipped" polygon would silently corrupt the
// Voronoi cell it was derived from.
func TestClipHalfplaneDegenerateNoAlias(t *testing.T) {
	src := square(0, 0, 10, 10)
	want := src.Clone()
	got := ClipHalfplane(src, geom.Pt(3, 3), geom.Pt(3, 3)) // zero-length clip edge
	if len(got) != len(src) {
		t.Fatalf("degenerate clip changed shape: got %v, want %v", got, src)
	}
	for i := range got {
		got[i] = geom.Pt(-1e9, -1e9)
	}
	for i := range src {
		if !src[i].Eq(want[i]) {
			t.Fatalf("mutating the result corrupted the source at vertex %d: %v != %v", i, src[i], want[i])
		}
	}

	// Same property for the buffered variant: the result may alias the
	// ClipBuf, but never the input polygon.
	var buf ClipBuf
	got = ClipHalfplaneBuf(&buf, src, geom.Pt(3, 3), geom.Pt(3, 3))
	for i := range got {
		got[i] = geom.Pt(1e9, 1e9)
	}
	for i := range src {
		if !src[i].Eq(want[i]) {
			t.Fatalf("buffered degenerate clip aliased the source at vertex %d", i)
		}
	}
}

// TestConvexIntersectNoAlias checks the unbuffered entry points never hand
// back storage shared with an operand.
func TestConvexIntersectNoAlias(t *testing.T) {
	a := square(0, 0, 10, 10)
	b := square(0, 0, 10, 10) // identical: result equals both operands
	wantA, wantB := a.Clone(), b.Clone()
	got := ConvexIntersect(a, b)
	for i := range got {
		got[i] = geom.Pt(-7, -7)
	}
	for i := range a {
		if !a[i].Eq(wantA[i]) || !b[i].Eq(wantB[i]) {
			t.Fatalf("ConvexIntersect result aliased an operand at vertex %d", i)
		}
	}
}

// TestClipBufReuse runs many intersections through one ClipBuf and checks the
// results stay correct call after call (each result is consumed before the
// next call, matching the sweep's usage pattern).
func TestClipBufReuse(t *testing.T) {
	var buf ClipBuf
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		a := randomConvex(r, 0, 0, 20)
		b := randomConvex(r, r.Float64()*10-5, r.Float64()*10-5, 20)
		if a.IsEmpty() || b.IsEmpty() {
			continue
		}
		got := ConvexIntersectBuf(&buf, a, b)
		want := ConvexIntersect(a, b)
		if (got == nil) != (want == nil) {
			t.Fatalf("iter %d: buffered nil-ness %v differs from unbuffered %v", i, got, want)
		}
		if got != nil && math.Abs(got.Area()-want.Area()) > 1e-9*(1+want.Area()) {
			t.Fatalf("iter %d: buffered area %v != %v", i, got.Area(), want.Area())
		}
	}
}

// TestClipBufZeroAlloc checks that once a ClipBuf has grown to the working-set
// size, the buffered kernels allocate nothing.
func TestClipBufZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := randomConvex(r, 0, 0, 20)
	b := randomConvex(r, 2, 2, 20)
	rect := geom.NewRect(geom.Pt(-3, -3), geom.Pt(3, 3))
	var buf ClipBuf
	// Warm the buffers.
	for i := 0; i < 4; i++ {
		ConvexIntersectBuf(&buf, a, b)
		ClipToRectBuf(&buf, a, rect)
		ClipHalfplaneBuf(&buf, a, geom.Pt(0, -1), geom.Pt(0, 1))
	}
	if avg := testing.AllocsPerRun(100, func() {
		ConvexIntersectBuf(&buf, a, b)
	}); avg != 0 {
		t.Errorf("warm ConvexIntersectBuf allocates %v/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		ClipToRectBuf(&buf, a, rect)
	}); avg != 0 {
		t.Errorf("warm ClipToRectBuf allocates %v/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		ClipHalfplaneBuf(&buf, a, geom.Pt(0, -1), geom.Pt(0, 1))
	}); avg != 0 {
		t.Errorf("warm ClipHalfplaneBuf allocates %v/op, want 0", avg)
	}
}

// vertexSetsAgree reports whether every vertex of a has a counterpart in b
// within tol and vice versa (order- and rotation-independent comparison).
func vertexSetsAgree(a, b geom.Polygon, tol float64) bool {
	match := func(p geom.Point, pg geom.Polygon) bool {
		for _, q := range pg {
			if p.Dist(q) <= tol {
				return true
			}
		}
		return false
	}
	for _, p := range a {
		if !match(p, b) {
			return false
		}
	}
	for _, q := range b {
		if !match(q, a) {
			return false
		}
	}
	return true
}

// TestONMDifferential cross-checks the O(n+m) kernel against the
// Sutherland–Hodgman cascade on random convex polygons: whenever the kernel
// accepts, its area and vertex set must agree with the robust path.
func TestONMDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	var bufA, bufB ClipBuf
	accepted, declined := 0, 0
	for i := 0; i < 3000; i++ {
		p := randomConvex(r, 0, 0, 20)
		q := randomConvex(r, r.Float64()*14-7, r.Float64()*14-7, 20)
		if len(p) < onmMinVerts || len(q) < onmMinVerts {
			continue
		}
		if p.Area() <= clipEps || q.Area() <= clipEps {
			continue
		}
		onm, ok := runONM(&bufA, p, q)
		if !ok {
			declined++
			continue
		}
		accepted++
		onm = onm.Clone()
		sh := convexIntersectSH(&bufB, p, q)
		shArea := 0.0
		if sh != nil {
			shArea = sh.Area()
		}
		onmArea := 0.0
		if onm != nil {
			onmArea = onm.Area()
		}
		scale := 1 + math.Max(p.Area(), q.Area())
		if math.Abs(onmArea-shArea) > 1e-7*scale {
			t.Fatalf("seed iter %d: ONM area %v != SH area %v\np=%v\nq=%v", i, onmArea, shArea, p, q)
		}
		if onm != nil && sh != nil && !vertexSetsAgree(onm, sh, 1e-6*(1+20)) {
			t.Fatalf("seed iter %d: vertex sets disagree\nONM=%v\nSH=%v\np=%v\nq=%v", i, onm, sh, p, q)
		}
	}
	if accepted == 0 {
		t.Fatalf("ONM kernel never accepted (declined %d): guard bands too wide or size gate never met", declined)
	}
	t.Logf("ONM accepted %d, declined %d", accepted, declined)
}

// TestONMFallbackCases pins configurations the kernel must decline or decide
// correctly: containment (no boundary crossings), disjoint operands, and
// shared collinear boundary edges — all common along the search-space border.
func TestONMFallbackCases(t *testing.T) {
	hexAt := func(cx, cy, r, phase float64) geom.Polygon {
		pg := make(geom.Polygon, 0, 6)
		for i := 0; i < 6; i++ {
			a := phase + 2*math.Pi*float64(i)/6
			pg = append(pg, geom.Pt(cx+r*math.Cos(a), cy+r*math.Sin(a)))
		}
		return pg
	}
	hex := func(cx, cy, r float64) geom.Polygon { return hexAt(cx, cy, r, 0) }
	var buf ClipBuf

	// Containment with exactly parallel edge pairs (same-phase concentric
	// hexagons): the near-parallel guard fires before any epilogue and the
	// kernel must decline — the cascade resolves it exactly.
	if out, ok := runONM(&buf, hex(0, 0, 10), hex(0, 0, 2)); ok {
		t.Fatalf("parallel-edge containment accepted by ONM kernel: %v", out)
	}
	// Containment in general position (inner hexagon rotated so no edge
	// pair is parallel): no crossings; the guarded seed-vertex epilogue
	// must decide it and return the inner polygon.
	inner := hexAt(0, 0, 2, 0.25)
	if out, ok := runONM(&buf, hex(0, 0, 10), inner); !ok {
		t.Fatalf("containment declined by ONM kernel")
	} else if math.Abs(out.Area()-inner.Area()) > 1e-9 {
		t.Fatalf("containment via ONM kernel: area %v", out.Area())
	}
	// Disjoint in general position: no crossings and both seeds decisively
	// outside — the epilogue must decide emptiness without the cascade.
	if out, ok := runONM(&buf, hex(0, 0, 1), hexAt(100, 0, 1, 0.25)); !ok || out != nil {
		t.Fatalf("disjoint not decided by ONM kernel: out=%v ok=%v", out, ok)
	}
	// Whatever the kernel does on these, the public entry point must be
	// exact.
	if got := ConvexIntersect(hex(0, 0, 10), hex(0, 0, 2)); math.Abs(got.Area()-hex(0, 0, 2).Area()) > 1e-9 {
		t.Fatalf("containment via ConvexIntersect: area %v", got.Area())
	}
	if got := ConvexIntersect(hex(0, 0, 1), hex(100, 0, 1)); got != nil {
		t.Fatalf("disjoint via ConvexIntersect: %v", got)
	}
	// Shared collinear edge with proper overlap elsewhere: two pentagons
	// sharing the segment y=0. Near-parallel edge pairs must not corrupt the
	// result (kernel declines, cascade decides).
	a := geom.NewPolygon(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(5, 2), geom.Pt(2, 4), geom.Pt(-1, 2))
	b := geom.NewPolygon(geom.Pt(1, 0), geom.Pt(6, 0), geom.Pt(6, 3), geom.Pt(3, 5), geom.Pt(1, 3))
	got := ConvexIntersect(a, b)
	want := convexIntersectSH(&buf, a, b)
	wantArea := 0.0
	if want != nil {
		wantArea = want.Area()
	}
	if math.Abs(got.Area()-wantArea) > 1e-9 {
		t.Fatalf("shared-edge case: got area %v, want %v", got.Area(), wantArea)
	}
}

// runONM runs the O(n+m) kernel with the operand areas its callers pass.
func runONM(buf *ClipBuf, p, q geom.Polygon) (geom.Polygon, bool) {
	return convexIntersectONM(buf, p, q, p.Area(), q.Area())
}
