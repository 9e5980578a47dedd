package voronoi

import (
	"fmt"
	"math"

	"molq/internal/geom"
	"molq/internal/polyclip"
)

// Diagram is an ordinary Voronoi diagram clipped to a rectangular search
// space. Cells[i] is the (convex, counterclockwise) dominance region of
// Sites[i] intersected with Bounds. A site that duplicates an earlier site's
// location, or whose dominance region misses Bounds entirely, has a nil cell.
type Diagram struct {
	Sites  []geom.Point
	Cells  []geom.Polygon
	Bounds geom.Rect
}

// Compute builds the Voronoi diagram of sites clipped to bounds.
func Compute(sites []geom.Point, bounds geom.Rect) (*Diagram, error) {
	if len(sites) == 0 {
		return nil, ErrNoSites
	}
	if bounds.IsEmpty() {
		return nil, fmt.Errorf("voronoi: empty bounds %v", bounds)
	}
	ext := bounds
	for _, p := range sites {
		ext = ext.ExtendPoint(p)
	}
	diam := math.Max(math.Max(ext.Width(), ext.Height()), 1)
	margin := 4 * diam
	frame := geom.Rect{
		Min: geom.Point{X: ext.Min.X - margin, Y: ext.Min.Y - margin},
		Max: geom.Point{X: ext.Max.X + margin, Y: ext.Max.Y + margin},
	}
	tr := newTriangulation(len(sites), frame)
	order := sortMorton(sites, ext)
	vert := make([]int32, len(sites))
	seen := make(map[geom.Point]struct{}, len(sites))
	for _, si := range order {
		p := sites[si]
		if _, dup := seen[p]; dup {
			vert[si] = -1
			continue
		}
		seen[p] = struct{}{}
		tr.pts = append(tr.pts, p)
		pi := int32(len(tr.pts) - 1)
		vert[si] = pi
		if err := tr.insert(pi); err != nil {
			return nil, err
		}
	}
	// Cache circumcenters of alive triangles.
	cc := make([]geom.Point, len(tr.tris))
	for i := range tr.tris {
		if tr.tris[i].alive {
			cc[i] = tr.circumcenter(int32(i))
		}
	}
	// One incident triangle per vertex.
	vertTri := make([]int32, len(tr.pts))
	for i := range vertTri {
		vertTri[i] = noTri
	}
	for i := range tr.tris {
		if !tr.tris[i].alive {
			continue
		}
		for _, v := range tr.tris[i].v {
			vertTri[v] = int32(i)
		}
	}
	// The fan walk and the clip reuse one scratch buffer pair across all
	// cells; only the final clipped cell is retained (one allocation per
	// site).
	cells := make([]geom.Polygon, len(sites))
	var clip polyclip.ClipBuf
	var fan geom.Polygon
	for si := range sites {
		pi := vert[si]
		if pi < 0 {
			continue
		}
		var err error
		fan, err = tr.cellAroundInto(fan[:0], pi, vertTri, cc)
		if err != nil {
			return nil, fmt.Errorf("voronoi: site %d: %w", si, err)
		}
		cells[si] = clipCell(&clip, fan, bounds)
	}
	return &Diagram{Sites: sites, Cells: cells, Bounds: bounds}, nil
}

// clipCell normalises a circumcenter fan (in place — fan is scratch) and
// clips it to the search space, returning a polygon the caller owns.
func clipCell(buf *polyclip.ClipBuf, fan geom.Polygon, bounds geom.Rect) geom.Polygon {
	out := polyclip.ClipToRectBuf(buf, fan.EnsureCCWInPlace(), bounds)
	if out == nil {
		return nil
	}
	return out.Clone()
}

// cellAroundInto walks the triangle fan around vertex pi and appends the
// polygon of circumcenters to dst (typically a recycled scratch buffer).
func (t *triangulation) cellAroundInto(dst geom.Polygon, pi int32, vertTri []int32, cc []geom.Point) (geom.Polygon, error) {
	start := vertTri[pi]
	if start == noTri {
		return nil, fmt.Errorf("vertex %d has no incident triangle", pi)
	}
	poly := dst
	cur := start
	for steps := 0; ; steps++ {
		if steps > len(t.tris)+8 {
			return nil, fmt.Errorf("vertex %d: fan walk did not close", pi)
		}
		tr := &t.tris[cur]
		pos := -1
		for i := 0; i < 3; i++ {
			if tr.v[i] == pi {
				pos = i
				break
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("vertex %d missing from triangle %d", pi, cur)
		}
		poly = append(poly, cc[cur])
		next := tr.n[(pos+2)%3]
		if next == noTri {
			return nil, fmt.Errorf("vertex %d: open fan (frame too small)", pi)
		}
		if next == start {
			break
		}
		cur = next
	}
	return poly.DedupInPlace(), nil
}

// DelaunayEdges returns the Delaunay triangulation edges among the given
// sites (as index pairs u < v, duplicates removed). Edges incident to the
// construction frame are excluded, so the result is the Delaunay graph of
// the sites themselves — a standard generator for synthetic planar road
// networks. Duplicate sites are skipped like in Compute.
func DelaunayEdges(sites []geom.Point) ([][2]int32, error) {
	if len(sites) == 0 {
		return nil, ErrNoSites
	}
	ext := geom.EmptyRect()
	for _, p := range sites {
		ext = ext.ExtendPoint(p)
	}
	diam := math.Max(math.Max(ext.Width(), ext.Height()), 1)
	margin := 4 * diam
	frame := geom.Rect{
		Min: geom.Point{X: ext.Min.X - margin, Y: ext.Min.Y - margin},
		Max: geom.Point{X: ext.Max.X + margin, Y: ext.Max.Y + margin},
	}
	tr := newTriangulation(len(sites), frame)
	order := sortMorton(sites, ext)
	vert := make([]int32, len(sites))
	backRef := make(map[int32]int32, len(sites)) // triangulation vertex → site
	seen := make(map[geom.Point]struct{}, len(sites))
	for _, si := range order {
		p := sites[si]
		if _, dup := seen[p]; dup {
			vert[si] = -1
			continue
		}
		seen[p] = struct{}{}
		tr.pts = append(tr.pts, p)
		pi := int32(len(tr.pts) - 1)
		vert[si] = pi
		backRef[pi] = int32(si)
		if err := tr.insert(pi); err != nil {
			return nil, err
		}
	}
	type edge struct{ u, v int32 }
	set := make(map[edge]struct{})
	for i := range tr.tris {
		if !tr.tris[i].alive {
			continue
		}
		vs := tr.tris[i].v
		for e := 0; e < 3; e++ {
			a, b := vs[e], vs[(e+1)%3]
			sa, okA := backRef[a]
			sb, okB := backRef[b]
			if !okA || !okB { // frame vertex
				continue
			}
			if sa > sb {
				sa, sb = sb, sa
			}
			set[edge{sa, sb}] = struct{}{}
		}
	}
	out := make([][2]int32, 0, len(set))
	for e := range set {
		out = append(out, [2]int32{e.u, e.v})
	}
	return out, nil
}
