package geom

import (
	"math"
	"sort"
)

// Polygon is a simple polygon given by its vertices in counterclockwise
// order. The closing edge from the last vertex back to the first is implicit.
// A nil or short (<3 vertex) polygon is treated as empty.
type Polygon []Point

// NewPolygon copies pts into a Polygon.
func NewPolygon(pts ...Point) Polygon {
	out := make(Polygon, len(pts))
	copy(out, pts)
	return out
}

// IsEmpty reports whether the polygon has fewer than three vertices.
func (pg Polygon) IsEmpty() bool { return len(pg) < 3 }

// Clone returns a deep copy of pg.
func (pg Polygon) Clone() Polygon {
	out := make(Polygon, len(pg))
	copy(out, pg)
	return out
}

// SignedArea returns the signed area of pg: positive when the vertices are in
// counterclockwise order.
func (pg Polygon) SignedArea() float64 {
	if pg.IsEmpty() {
		return 0
	}
	sum := 0.0
	last := len(pg) - 1
	for i := 0; i < last; i++ {
		sum += pg[i].Cross(pg[i+1])
	}
	sum += pg[last].Cross(pg[0])
	return sum / 2
}

// Area returns the absolute area of pg.
func (pg Polygon) Area() float64 { return math.Abs(pg.SignedArea()) }

// Centroid returns the area centroid of pg. For empty or degenerate polygons
// it returns the mean of the vertices.
func (pg Polygon) Centroid() Point {
	if len(pg) == 0 {
		return Point{}
	}
	a := pg.SignedArea()
	if math.Abs(a) < Eps {
		var c Point
		for _, p := range pg {
			c = c.Add(p)
		}
		return c.Scale(1 / float64(len(pg)))
	}
	var cx, cy float64
	for i, p := range pg {
		q := pg[(i+1)%len(pg)]
		w := p.Cross(q)
		cx += (p.X + q.X) * w
		cy += (p.Y + q.Y) * w
	}
	f := 1 / (6 * a)
	return Point{cx * f, cy * f}
}

// Bounds returns the minimum bounding rectangle of pg.
func (pg Polygon) Bounds() Rect {
	r := EmptyRect()
	for _, p := range pg {
		r = r.ExtendPoint(p)
	}
	return r
}

// Contains reports whether p lies inside or on the boundary of pg, using the
// winding/ray-crossing rule. pg may be convex or concave.
func (pg Polygon) Contains(p Point) bool {
	if pg.IsEmpty() {
		return false
	}
	inside := false
	n := len(pg)
	for i := 0; i < n; i++ {
		a, b := pg[i], pg[(i+1)%n]
		// Boundary check: p on segment ab.
		if onSegment(a, b, p) {
			return true
		}
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xCross := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if p.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

func onSegment(a, b, p Point) bool {
	if math.Abs(Orient(a, b, p)) > Eps*math.Max(1, a.Dist(b)) {
		return false
	}
	return p.X >= math.Min(a.X, b.X)-Eps && p.X <= math.Max(a.X, b.X)+Eps &&
		p.Y >= math.Min(a.Y, b.Y)-Eps && p.Y <= math.Max(a.Y, b.Y)+Eps
}

// IsConvex reports whether pg is convex (allowing collinear vertices).
func (pg Polygon) IsConvex() bool {
	n := len(pg)
	if n < 3 {
		return false
	}
	sign := 0
	for i := 0; i < n; i++ {
		o := Orient(pg[i], pg[(i+1)%n], pg[(i+2)%n])
		if math.Abs(o) <= Eps {
			continue
		}
		s := 1
		if o < 0 {
			s = -1
		}
		if sign == 0 {
			sign = s
		} else if sign != s {
			return false
		}
	}
	return true
}

// EnsureCCW returns pg with counterclockwise orientation, reversing a copy
// when necessary.
func (pg Polygon) EnsureCCW() Polygon {
	if pg.SignedArea() >= 0 {
		return pg
	}
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[len(pg)-1-i] = p
	}
	return out
}

// Dedup removes consecutive duplicate vertices (within Eps), including a
// duplicate closing vertex.
func (pg Polygon) Dedup() Polygon {
	if len(pg) == 0 {
		return pg
	}
	out := make(Polygon, 0, len(pg))
	for _, p := range pg {
		if len(out) == 0 || !out[len(out)-1].Eq(p) {
			out = append(out, p)
		}
	}
	for len(out) > 1 && out[0].Eq(out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	return out
}

// DedupInPlace is Dedup compacting pg's own backing array instead of
// allocating; the returned slice aliases pg. Allocation-free paths (the
// clipping kernels, the Voronoi cell-fan walk) use it on scratch buffers.
func (pg Polygon) DedupInPlace() Polygon {
	if len(pg) == 0 {
		return pg
	}
	out := pg[:0]
	for _, p := range pg {
		if len(out) == 0 || !out[len(out)-1].Eq(p) {
			out = append(out, p)
		}
	}
	for len(out) > 1 && out[0].Eq(out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	return out
}

// EnsureCCWInPlace is EnsureCCW reversing pg's own backing array when the
// vertices are clockwise; the returned slice aliases pg.
func (pg Polygon) EnsureCCWInPlace() Polygon {
	if pg.SignedArea() >= 0 {
		return pg
	}
	for i, j := 0, len(pg)-1; i < j; i, j = i+1, j-1 {
		pg[i], pg[j] = pg[j], pg[i]
	}
	return pg
}

// RectPolygon returns r as a counterclockwise Polygon.
func RectPolygon(r Rect) Polygon {
	c := r.Corners()
	return Polygon{c[0], c[1], c[2], c[3]}
}

// ConvexHull returns the convex hull of pts in counterclockwise order using
// Andrew's monotone chain. Duplicated and collinear boundary points are
// dropped. The input slice is not modified.
func ConvexHull(pts []Point) Polygon {
	n := len(pts)
	if n < 3 {
		return NewPolygon(pts...)
	}
	sorted := make([]Point, n)
	copy(sorted, pts)
	// Sort by x then y (insertion of small inputs dominate; use sort pkg).
	sortPoints(sorted)
	hull := make([]Point, 0, 2*n)
	// Lower hull.
	for _, p := range sorted {
		for len(hull) >= 2 && Orient(hull[len(hull)-2], hull[len(hull)-1], p) <= Eps {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- {
		p := sorted[i]
		for len(hull) >= lower && Orient(hull[len(hull)-2], hull[len(hull)-1], p) <= Eps {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return Polygon(hull[:len(hull)-1])
}

func sortPoints(pts []Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		return pts[i].Y < pts[j].Y
	})
}
