package polyclip

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"molq/internal/geom"
)

func square(x0, y0, x1, y1 float64) geom.Polygon {
	return geom.NewPolygon(geom.Pt(x0, y0), geom.Pt(x1, y0), geom.Pt(x1, y1), geom.Pt(x0, y1))
}

func TestSquareOverlap(t *testing.T) {
	a := square(0, 0, 10, 10)
	b := square(5, 5, 15, 15)
	got := ConvexIntersect(a, b)
	if math.Abs(got.Area()-25) > 1e-9 {
		t.Fatalf("area = %v, want 25", got.Area())
	}
	if got.Bounds() != geom.NewRect(geom.Pt(5, 5), geom.Pt(10, 10)) {
		t.Fatalf("bounds = %v", got.Bounds())
	}
}

func TestDisjoint(t *testing.T) {
	if got := ConvexIntersect(square(0, 0, 1, 1), square(5, 5, 6, 6)); got != nil {
		t.Fatalf("disjoint intersection = %v", got)
	}
}

func TestTouchingEdgeIsEmpty(t *testing.T) {
	// Sharing only a boundary edge has zero area → treated as empty
	// (Property 4: overlaps of distinct OVRs are subsets of boundaries).
	if got := ConvexIntersect(square(0, 0, 1, 1), square(1, 0, 2, 1)); got != nil {
		t.Fatalf("edge-touching intersection = %v", got)
	}
}

func TestContainment(t *testing.T) {
	outer := square(0, 0, 10, 10)
	inner := square(2, 2, 4, 4)
	got := ConvexIntersect(outer, inner)
	if math.Abs(got.Area()-4) > 1e-9 {
		t.Fatalf("contained intersection area = %v", got.Area())
	}
	got = ConvexIntersect(inner, outer)
	if math.Abs(got.Area()-4) > 1e-9 {
		t.Fatalf("reversed containment area = %v", got.Area())
	}
}

func TestTriangleSquare(t *testing.T) {
	tri := geom.NewPolygon(geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 10))
	sq := square(0, 0, 5, 5)
	got := ConvexIntersect(tri, sq)
	// The triangle cuts the square's top-right corner: area 25 - 0 =
	// region x∈[0,5], y∈[0,5], x+y≤10 — the whole square (corner (5,5) has
	// x+y=10 on the boundary).
	if math.Abs(got.Area()-25) > 1e-9 {
		t.Fatalf("area = %v, want 25", got.Area())
	}
	sq2 := square(2, 2, 9, 9)
	got = ConvexIntersect(tri, sq2)
	// Square [2,9]² clipped by x+y≤10: area 49 − ½·(9+9−10)² /2 ... compute
	// directly: corner cut is the triangle with legs (9−1)=8? Solve: region
	// loses the corner triangle above x+y=10 with vertices (1? ) — use
	// shoelace via expected polygon (2,2),(9? ...). Simpler: area = ∫ …
	// The cut triangle has legs from (9,1)→ not inside. Points of sq2 above
	// the line: (9,9) only... both (2,9):11>10 and (9,2):11>10 are above
	// too? 2+9=11>10 yes. So only (2,2) is below. Remaining region is the
	// triangle (2,2),(8,2),(2,8): area ½·6·6 = 18.
	if math.Abs(got.Area()-18) > 1e-9 {
		t.Fatalf("area = %v, want 18", got.Area())
	}
}

func TestEmptyInputs(t *testing.T) {
	if got := ConvexIntersect(nil, square(0, 0, 1, 1)); got != nil {
		t.Fatalf("nil subject gave %v", got)
	}
	if got := ConvexIntersect(square(0, 0, 1, 1), nil); got != nil {
		t.Fatalf("nil clip gave %v", got)
	}
}

func TestClipToRect(t *testing.T) {
	tri := geom.NewPolygon(geom.Pt(-5, -5), geom.Pt(15, -5), geom.Pt(5, 15))
	var buf ClipBuf
	got := ClipToRectBuf(&buf, tri, geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10)))
	if got.IsEmpty() {
		t.Fatal("clip produced empty polygon")
	}
	b := got.Bounds()
	if b.Min.X < -1e-9 || b.Min.Y < -1e-9 || b.Max.X > 10+1e-9 || b.Max.Y > 10+1e-9 {
		t.Fatalf("clipped polygon escapes rect: %v", b)
	}
}

func TestClipHalfplane(t *testing.T) {
	sq := square(0, 0, 10, 10)
	// Keep the left of the upward line x=4 (direction (0,1) at x=4 keeps
	// x ≤ 4... left of (4,0)→(4,1) is x < 4 side).
	got := ClipHalfplane(sq, geom.Pt(4, 0), geom.Pt(4, 1))
	if math.Abs(got.Area()-40) > 1e-9 {
		t.Fatalf("halfplane clip area = %v, want 40", got.Area())
	}
	// A halfplane that misses the polygon entirely: left of the upward
	// line x=-1 is x < -1.
	if got := ClipHalfplane(sq, geom.Pt(-1, -1), geom.Pt(-1, 0)); got != nil {
		t.Fatalf("fully clipped polygon should be nil, got %v", got)
	}
}

// randomConvex generates a random convex polygon by taking the hull of
// random points.
func randomConvex(r *rand.Rand, cx, cy, span float64) geom.Polygon {
	pts := make([]geom.Point, 8+r.Intn(8))
	for i := range pts {
		pts[i] = geom.Pt(cx+span*(r.Float64()-0.5), cy+span*(r.Float64()-0.5))
	}
	return geom.ConvexHull(pts)
}

func TestIntersectionProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomConvex(r, 0, 0, 20)
		b := randomConvex(r, r.Float64()*10, r.Float64()*10, 20)
		if a.IsEmpty() || b.IsEmpty() {
			return true
		}
		ab := ConvexIntersect(a, b)
		ba := ConvexIntersect(b, a)
		areaAB, areaBA := ab.Area(), ba.Area()
		// Commutative in area.
		if math.Abs(areaAB-areaBA) > 1e-6*math.Max(1, areaAB) {
			return false
		}
		// Never larger than either operand.
		if areaAB > a.Area()+1e-9 || areaAB > b.Area()+1e-9 {
			return false
		}
		// Result is convex and inside both bounding boxes.
		if !ab.IsEmpty() {
			if !ab.IsConvex() {
				return false
			}
			box := a.Bounds().Intersect(b.Bounds())
			slack := geom.Rect{
				Min: geom.Pt(box.Min.X-1e-6, box.Min.Y-1e-6),
				Max: geom.Pt(box.Max.X+1e-6, box.Max.Y+1e-6),
			}
			if !slack.ContainsRect(ab.Bounds()) {
				return false
			}
		}
		// Sample containment: points inside the result are inside both
		// operands.
		for k := 0; k < 10 && !ab.IsEmpty(); k++ {
			c := ab.Centroid()
			if !a.Contains(c) || !b.Contains(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSelfIntersection(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		pg := randomConvex(r, 0, 0, 30)
		if pg.IsEmpty() {
			continue
		}
		got := ConvexIntersect(pg, pg)
		if math.Abs(got.Area()-pg.Area()) > 1e-6*pg.Area() {
			t.Fatalf("self intersection area %v != %v", got.Area(), pg.Area())
		}
	}
}
