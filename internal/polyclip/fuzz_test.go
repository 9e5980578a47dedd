package polyclip

import (
	"math"
	"math/rand"
	"testing"

	"molq/internal/geom"
)

// FuzzConvexIntersect feeds the clipping kernel quads built from arbitrary
// floats and checks the invariants that must hold regardless of input shape:
// no panic, result area never exceeds either operand, result inside the
// intersection of bounding boxes.
func FuzzConvexIntersect(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 10.0, 5.0, 5.0, 15.0, 15.0)
	f.Add(-1e9, -1e9, 1e9, 1e9, 0.0, 0.0, 1.0, 1.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(1.5, 2.5, 1.5, 2.5, 1.5, 2.5, 3.5, 4.5)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		maxAbs := 0.0
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return
			}
			maxAbs = math.Max(maxAbs, math.Abs(v))
		}
		// Intersection vertices carry absolute error proportional to the
		// operand magnitude (≈ maxAbs·ε per coordinate), so the invariant
		// tolerances must scale with it.
		tol := 1e-9 * (1 + maxAbs)
		a := geom.RectPolygon(geom.NewRect(geom.Pt(ax, ay), geom.Pt(bx, by)))
		b := geom.RectPolygon(geom.NewRect(geom.Pt(cx, cy), geom.Pt(dx, dy)))
		out := ConvexIntersect(a, b)
		if out == nil {
			return
		}
		perim := 0.0
		for i, p := range out {
			perim += p.Dist(out[(i+1)%len(out)])
		}
		areaTol := tol * (1 + perim)
		if out.Area() > a.Area()+areaTol || out.Area() > b.Area()+areaTol {
			t.Fatalf("intersection area %v exceeds operands %v/%v (tol %v)",
				out.Area(), a.Area(), b.Area(), areaTol)
		}
		box := a.Bounds().Intersect(b.Bounds())
		slack := geom.Rect{
			Min: geom.Pt(box.Min.X-tol, box.Min.Y-tol),
			Max: geom.Pt(box.Max.X+tol, box.Max.Y+tol),
		}
		if !slack.ContainsRect(out.Bounds()) {
			t.Fatalf("result %v escapes box %v", out.Bounds(), box)
		}
	})
}

// FuzzConvexIntersectDifferential cross-checks the O(n+m) edge-advance kernel
// and the buffered clipping entry points against the plain Sutherland–Hodgman
// cascade on random convex polygons. The fuzzed seed drives polygon
// generation, so the corpus explores operand sizes and offsets rather than
// raw coordinates (which randomConvex keeps in a well-scaled range).
func FuzzConvexIntersectDifferential(f *testing.F) {
	f.Add(int64(1), 0.0, 0.0)
	f.Add(int64(42), 5.0, -3.0)
	f.Add(int64(-1234567), 0.001, 0.001)
	f.Fuzz(func(t *testing.T, seed int64, dx, dy float64) {
		if math.IsNaN(dx) || math.IsInf(dx, 0) || math.Abs(dx) > 1e6 ||
			math.IsNaN(dy) || math.IsInf(dy, 0) || math.Abs(dy) > 1e6 {
			return
		}
		r := rand.New(rand.NewSource(seed))
		p := randomConvex(r, 0, 0, 20)
		q := randomConvex(r, dx, dy, 20)
		if p.IsEmpty() || q.IsEmpty() || p.Area() <= clipEps || q.Area() <= clipEps {
			return
		}
		scale := 1 + math.Max(math.Abs(dx), math.Abs(dy))
		tol := 1e-6 * scale

		var shBuf, onmBuf, clipBuf ClipBuf
		sh := convexIntersectSH(&shBuf, p, q)
		shArea := 0.0
		if sh != nil {
			sh = sh.Clone()
			shArea = sh.Area()
		}

		// Kernel differential: when ONM accepts, it must agree with the
		// cascade on area and vertex set.
		if len(p) >= onmMinVerts && len(q) >= onmMinVerts {
			if onm, ok := runONM(&onmBuf, p, q); ok {
				onmArea := 0.0
				if onm != nil {
					onmArea = onm.Area()
				}
				if math.Abs(onmArea-shArea) > tol*(1+shArea) {
					t.Fatalf("ONM area %v != SH area %v\np=%v\nq=%v", onmArea, shArea, p, q)
				}
				if onm != nil && sh != nil && !vertexSetsAgree(onm, sh, tol) {
					t.Fatalf("ONM/SH vertex sets disagree\nONM=%v\nSH=%v\np=%v\nq=%v", onm, sh, p, q)
				}
			}
		}

		// Buffered public entry point must match the cascade bit-for-area as
		// well (it routes through either kernel).
		buffed := ConvexIntersectBuf(&clipBuf, p, q)
		buffedArea := 0.0
		if buffed != nil {
			buffedArea = buffed.Area()
		}
		if math.Abs(buffedArea-shArea) > tol*(1+shArea) {
			t.Fatalf("ConvexIntersectBuf area %v != SH area %v", buffedArea, shArea)
		}

		// And the unbuffered wrapper must match the buffered result exactly.
		plain := ConvexIntersect(p, q)
		plainArea := 0.0
		if plain != nil {
			plainArea = plain.Area()
		}
		if math.Abs(plainArea-buffedArea) > 1e-12*(1+buffedArea) {
			t.Fatalf("ConvexIntersect %v != ConvexIntersectBuf %v", plainArea, buffedArea)
		}
	})
}
