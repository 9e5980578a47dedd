package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Fatalf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Fatalf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Fatalf("Dot = %v", got)
	}
	if got := p.Cross(q); got != -4-6 {
		t.Fatalf("Cross = %v", got)
	}
	if got := Pt(0, 0).Dist(Pt(3, 4)); got != 5 {
		t.Fatalf("Dist = %v", got)
	}
	if got := Pt(0, 0).Dist2(Pt(3, 4)); got != 25 {
		t.Fatalf("Dist2 = %v", got)
	}
}

func TestLerp(t *testing.T) {
	if got := Lerp(Pt(0, 0), Pt(10, 20), 0.25); !got.Eq(Pt(2.5, 5)) {
		t.Fatalf("Lerp = %v", got)
	}
}

func TestOrient(t *testing.T) {
	if Orient(Pt(0, 0), Pt(1, 0), Pt(0, 1)) <= 0 {
		t.Fatal("ccw triple should be positive")
	}
	if Orient(Pt(0, 0), Pt(0, 1), Pt(1, 0)) >= 0 {
		t.Fatal("cw triple should be negative")
	}
}

func TestInCircle(t *testing.T) {
	// Unit circle through (1,0), (0,1), (-1,0).
	a, b, c := Pt(1, 0), Pt(0, 1), Pt(-1, 0)
	if InCircle(a, b, c, Pt(0, 0)) <= 0 {
		t.Fatal("origin should be inside the unit circle")
	}
	if InCircle(a, b, c, Pt(2, 2)) >= 0 {
		t.Fatal("(2,2) should be outside the unit circle")
	}
}

func TestCircumcenter(t *testing.T) {
	cc, ok := Circumcenter(Pt(0, 0), Pt(2, 0), Pt(0, 2))
	if !ok || !cc.Eq(Pt(1, 1)) {
		t.Fatalf("circumcenter = %v ok=%v, want (1,1)", cc, ok)
	}
	if _, ok := Circumcenter(Pt(0, 0), Pt(1, 1), Pt(2, 2)); ok {
		t.Fatal("collinear points should have no circumcenter")
	}
}

func TestCircumcenterEquidistantProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Pt(math.Mod(ax, 100), math.Mod(ay, 100))
		b := Pt(math.Mod(bx, 100), math.Mod(by, 100))
		c := Pt(math.Mod(cx, 100), math.Mod(cy, 100))
		cc, ok := Circumcenter(a, b, c)
		if !ok {
			return true // degenerate inputs are allowed to fail
		}
		da, db, dc := cc.Dist(a), cc.Dist(b), cc.Dist(c)
		scale := math.Max(1, da)
		return math.Abs(da-db) < 1e-6*scale && math.Abs(da-dc) < 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Pt(4, 5), Pt(1, 2)) // corners in any order
	if r.Min != Pt(1, 2) || r.Max != Pt(4, 5) {
		t.Fatalf("NewRect normalised wrong: %v", r)
	}
	if r.Width() != 3 || r.Height() != 3 || r.Area() != 9 {
		t.Fatalf("dims wrong: w=%v h=%v a=%v", r.Width(), r.Height(), r.Area())
	}
	if r.Center() != Pt(2.5, 3.5) {
		t.Fatalf("center = %v", r.Center())
	}
	if !r.Contains(Pt(1, 2)) || !r.Contains(Pt(4, 5)) || r.Contains(Pt(0, 0)) {
		t.Fatal("containment wrong")
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() || e.Area() != 0 || e.Width() != 0 {
		t.Fatal("EmptyRect not empty")
	}
	r := NewRect(Pt(0, 0), Pt(1, 1))
	if got := e.Union(r); got != r {
		t.Fatalf("empty ∪ r = %v", got)
	}
	if e.Intersects(r) {
		t.Fatal("empty should not intersect")
	}
}

func TestRectIntersect(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(10, 10))
	b := NewRect(Pt(5, 5), Pt(15, 15))
	got := a.Intersect(b)
	if got != NewRect(Pt(5, 5), Pt(10, 10)) {
		t.Fatalf("intersect = %v", got)
	}
	c := NewRect(Pt(20, 20), Pt(30, 30))
	if !a.Intersect(c).IsEmpty() {
		t.Fatal("disjoint intersect should be empty")
	}
	// Touching rectangles intersect in a degenerate rect (closed semantics).
	d := NewRect(Pt(10, 0), Pt(20, 10))
	if !a.Intersects(d) {
		t.Fatal("touching rects should intersect (closed)")
	}
	if w := a.Intersect(d).Width(); w != 0 {
		t.Fatalf("touching intersection width = %v", w)
	}
}

func TestRectUnionExtend(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(1, 1))
	b := NewRect(Pt(2, -1), Pt(3, 0.5))
	if got := a.Union(b); got != NewRect(Pt(0, -1), Pt(3, 1)) {
		t.Fatalf("union = %v", got)
	}
	if got := a.ExtendPoint(Pt(-2, 5)); got != NewRect(Pt(-2, 0), Pt(1, 5)) {
		t.Fatalf("extend = %v", got)
	}
}

func TestRectContainsRect(t *testing.T) {
	outer := NewRect(Pt(0, 0), Pt(10, 10))
	if !outer.ContainsRect(NewRect(Pt(1, 1), Pt(9, 9))) {
		t.Fatal("inner rect should be contained")
	}
	if outer.ContainsRect(NewRect(Pt(5, 5), Pt(11, 9))) {
		t.Fatal("overflowing rect should not be contained")
	}
	if !outer.ContainsRect(EmptyRect()) {
		t.Fatal("empty rect is contained in everything")
	}
}

func TestPolygonAreaCentroid(t *testing.T) {
	sq := NewPolygon(Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2))
	if got := sq.Area(); got != 4 {
		t.Fatalf("area = %v", got)
	}
	if got := sq.SignedArea(); got != 4 {
		t.Fatalf("signed area = %v (ccw should be positive)", got)
	}
	if got := sq.Centroid(); !got.Eq(Pt(1, 1)) {
		t.Fatalf("centroid = %v", got)
	}
	cw := NewPolygon(Pt(0, 2), Pt(2, 2), Pt(2, 0), Pt(0, 0))
	if got := cw.SignedArea(); got != -4 {
		t.Fatalf("cw signed area = %v", got)
	}
	if got := cw.EnsureCCW().SignedArea(); got != 4 {
		t.Fatalf("EnsureCCW signed area = %v", got)
	}
}

func TestPolygonContains(t *testing.T) {
	tri := NewPolygon(Pt(0, 0), Pt(4, 0), Pt(0, 4))
	cases := []struct {
		p    Point
		want bool
	}{
		{Pt(1, 1), true},
		{Pt(3, 3), false},
		{Pt(2, 0), true}, // on edge
		{Pt(0, 0), true}, // on vertex
		{Pt(-1, 1), false},
		{Pt(2, 2), true}, // on hypotenuse
	}
	for _, c := range cases {
		if got := tri.Contains(c.p); got != c.want {
			t.Fatalf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPolygonConvexity(t *testing.T) {
	if !NewPolygon(Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)).IsConvex() {
		t.Fatal("square should be convex")
	}
	if NewPolygon(Pt(0, 0), Pt(4, 0), Pt(1, 1), Pt(0, 4)).IsConvex() {
		t.Fatal("dart should not be convex")
	}
}

func TestPolygonDedup(t *testing.T) {
	pg := NewPolygon(Pt(0, 0), Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(1, 1), Pt(0, 0))
	got := pg.Dedup()
	if len(got) != 3 {
		t.Fatalf("dedup left %d vertices: %v", len(got), got)
	}
}

func TestPolygonBounds(t *testing.T) {
	pg := NewPolygon(Pt(1, 5), Pt(-2, 0), Pt(4, 3))
	if got := pg.Bounds(); got != NewRect(Pt(-2, 0), Pt(4, 5)) {
		t.Fatalf("bounds = %v", got)
	}
}

func TestConvexHull(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	pts := []Point{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}
	// Interior noise must not affect the hull.
	for i := 0; i < 50; i++ {
		pts = append(pts, Pt(1+8*r.Float64(), 1+8*r.Float64()))
	}
	hull := ConvexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull has %d vertices: %v", len(hull), hull)
	}
	if math.Abs(hull.Area()-100) > 1e-9 {
		t.Fatalf("hull area = %v", hull.Area())
	}
	if !hull.IsConvex() {
		t.Fatal("hull must be convex")
	}
}

func TestRectPolygonRoundTrip(t *testing.T) {
	r := NewRect(Pt(1, 2), Pt(5, 7))
	pg := RectPolygon(r)
	if pg.Bounds() != r {
		t.Fatalf("round trip failed: %v", pg.Bounds())
	}
	if pg.SignedArea() <= 0 {
		t.Fatal("RectPolygon should be counterclockwise")
	}
}
