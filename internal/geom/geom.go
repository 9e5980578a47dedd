// Package geom provides the planar geometric primitives used throughout the
// MOLQ implementation: points, rectangles, segments, polygons, and the
// orientation/incircle predicates required by the Voronoi generator and the
// plane-sweep overlay.
//
// All coordinates are float64. Predicates use a relative epsilon tuned for
// coordinates in roughly [-1e7, 1e7], which covers the synthetic GeoNames
// extents used by the experiment harness.
package geom

import (
	"fmt"
	"math"
)

// Eps is the absolute tolerance used by the geometric comparisons in this
// package. Coordinates produced by the dataset generators are O(1e4), for
// which 1e-9 comfortably separates distinct constructed vertices.
const Eps = 1e-9

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product p×q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Norm returns the Euclidean length of the vector p.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Eq reports whether p and q coincide within Eps.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// Lerp returns the point p + t*(q-p).
func Lerp(p, q Point, t float64) Point {
	return Point{p.X + t*(q.X-p.X), p.Y + t*(q.Y-p.Y)}
}

// Orient returns a positive value if a→b→c turns counterclockwise, negative
// if clockwise, and approximately zero if the three points are collinear.
func Orient(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// InCircle reports a positive value when d lies inside the circle through
// a, b, c (which must be in counterclockwise order), negative when outside.
func InCircle(a, b, c, d Point) float64 {
	adx, ady := a.X-d.X, a.Y-d.Y
	bdx, bdy := b.X-d.X, b.Y-d.Y
	cdx, cdy := c.X-d.X, c.Y-d.Y
	ad := adx*adx + ady*ady
	bd := bdx*bdx + bdy*bdy
	cd := cdx*cdx + cdy*cdy
	return adx*(bdy*cd-bd*cdy) - ady*(bdx*cd-bd*cdx) + ad*(bdx*cdy-bdy*cdx)
}

// Circumcenter returns the center of the circle through a, b and c. The
// second result is false when the points are (nearly) collinear.
func Circumcenter(a, b, c Point) (Point, bool) {
	d := 2 * ((a.X)*(b.Y-c.Y) + (b.X)*(c.Y-a.Y) + (c.X)*(a.Y-b.Y))
	if math.Abs(d) < Eps {
		return Point{}, false
	}
	a2 := a.X*a.X + a.Y*a.Y
	b2 := b.X*b.X + b.Y*b.Y
	c2 := c.X*c.X + c.Y*c.Y
	ux := (a2*(b.Y-c.Y) + b2*(c.Y-a.Y) + c2*(a.Y-b.Y)) / d
	uy := (a2*(c.X-b.X) + b2*(a.X-c.X) + c2*(b.X-a.X)) / d
	return Point{ux, uy}, true
}

// Rect is an axis-aligned rectangle with Min the lower-left corner and Max
// the upper-right corner. A Rect with Min.X > Max.X or Min.Y > Max.Y is
// treated as empty.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{min(a.X, b.X), min(a.Y, b.Y)},
		Max: Point{max(a.X, b.X), max(a.Y, b.Y)},
	}
}

// EmptyRect returns a rectangle that is empty and acts as the identity for
// Union.
func EmptyRect() Rect {
	return Rect{
		Min: Point{math.Inf(1), math.Inf(1)},
		Max: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Width returns the horizontal extent of r (0 for empty rectangles).
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.X - r.Min.X
}

// Height returns the vertical extent of r (0 for empty rectangles).
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.Y - r.Min.Y
}

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X-Eps && p.X <= r.Max.X+Eps &&
		p.Y >= r.Min.Y-Eps && p.Y <= r.Max.Y+Eps
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return r.Contains(s.Min) && r.Contains(s.Max)
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Intersect returns the common region of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		Min: Point{max(r.Min.X, s.Min.X), max(r.Min.Y, s.Min.Y)},
		Max: Point{min(r.Max.X, s.Max.X), min(r.Max.Y, s.Max.Y)},
	}
	return out
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{min(r.Min.X, s.Min.X), min(r.Min.Y, s.Min.Y)},
		Max: Point{max(r.Max.X, s.Max.X), max(r.Max.Y, s.Max.Y)},
	}
}

// ExtendPoint grows r to cover p.
func (r Rect) ExtendPoint(p Point) Rect {
	return r.Union(Rect{Min: p, Max: p})
}

// Corners returns the four corner points of r in counterclockwise order
// starting from Min.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Min, r.Max)
}

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Point
}
