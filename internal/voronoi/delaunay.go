// Package voronoi generates ordinary Voronoi diagrams in the plane. It is the
// "VD Generator" substrate of the MOLQ pipeline (Sec 5.1 of the paper, citing
// Okabe et al. for generation methods).
//
// The implementation computes a Delaunay triangulation with an incremental
// Bowyer–Watson algorithm (jump-and-walk point location, Morton-ordered
// insertion for locality) and dualises it into Voronoi cells: the cell of a
// site is the polygon of circumcenters of its incident triangles. Four frame
// vertices placed far outside the search space make every real site an
// interior vertex, so every cell is a bounded convex polygon that is then
// clipped to the search-space rectangle.
package voronoi

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"molq/internal/geom"
)

// ErrNoSites is returned when Compute is called with an empty site list.
var ErrNoSites = errors.New("voronoi: no sites")

type tri struct {
	v     [3]int32 // vertex indices, counterclockwise
	n     [3]int32 // n[i] = neighbor across the edge opposite v[i]; -1 if none
	alive bool
}

type triangulation struct {
	pts     []geom.Point
	tris    []tri
	free    []int32
	lastTri int32
	// scratch buffers reused across insertions
	badList  []int32
	badMark  []uint32
	curEpoch uint32
	stack    []int32
	edges    []cavityEdge
	// wire[v] links cavity-boundary vertex v to the new triangles built on
	// the boundary edges starting (first) and ending (last) at v during the
	// insert whose epoch it carries; an entry from an older insert is stale
	// and reads as triangle 0.
	wire []cavityWire
	// newTris records the triangles created by the most recent insert or
	// deleteVertex, so incremental maintainers (Dynamic) can repair their
	// vertex→triangle index without rescanning the whole triangulation.
	newTris []int32
}

const noTri = int32(-1)

// newTriangulation seeds the structure with two triangles covering a frame
// square that encloses both the bounding rectangle of the sites and the
// search space.
func newTriangulation(capHint int, frame geom.Rect) *triangulation {
	t := &triangulation{
		pts:  make([]geom.Point, 0, capHint+4),
		tris: make([]tri, 0, 2*capHint+16),
	}
	c := frame.Corners() // ccw: minmin, maxmin, maxmax, minmax
	t.pts = append(t.pts, c[0], c[1], c[2], c[3])
	t.tris = append(t.tris,
		tri{v: [3]int32{0, 1, 2}, n: [3]int32{-1, 1, -1}, alive: true},
		tri{v: [3]int32{0, 2, 3}, n: [3]int32{-1, -1, 0}, alive: true},
	)
	t.lastTri = 0
	return t
}

// allocTri returns a slot for a new triangle.
func (t *triangulation) allocTri(tr tri) int32 {
	if n := len(t.free); n > 0 {
		idx := t.free[n-1]
		t.free = t.free[:n-1]
		t.tris[idx] = tr
		return idx
	}
	t.tris = append(t.tris, tr)
	return int32(len(t.tris) - 1)
}

// locate finds a triangle containing p by walking from the last created
// triangle, falling back to an exhaustive scan if the walk does not converge
// (which can only happen under severe degeneracy).
func (t *triangulation) locate(p geom.Point) (int32, error) {
	cur := t.lastTri
	if cur == noTri || !t.tris[cur].alive {
		cur = t.anyAlive()
		if cur == noTri {
			return noTri, errors.New("voronoi: no alive triangles")
		}
	}
	maxSteps := 4*len(t.tris) + 64
	for step := 0; step < maxSteps; step++ {
		tr := &t.tris[cur]
		next := noTri
		for i := 0; i < 3; i++ {
			a := t.pts[tr.v[(i+1)%3]]
			b := t.pts[tr.v[(i+2)%3]]
			if geom.Orient(a, b, p) < -geom.Eps {
				next = tr.n[i]
				break
			}
		}
		if next == noTri {
			return cur, nil
		}
		cur = next
	}
	// Fallback: exhaustive containment scan.
	for i := range t.tris {
		if !t.tris[i].alive {
			continue
		}
		if t.triContains(int32(i), p) {
			return int32(i), nil
		}
	}
	return noTri, fmt.Errorf("voronoi: point %v not located", p)
}

func (t *triangulation) anyAlive() int32 {
	for i := range t.tris {
		if t.tris[i].alive {
			return int32(i)
		}
	}
	return noTri
}

func (t *triangulation) triContains(ti int32, p geom.Point) bool {
	tr := &t.tris[ti]
	for i := 0; i < 3; i++ {
		a := t.pts[tr.v[(i+1)%3]]
		b := t.pts[tr.v[(i+2)%3]]
		if geom.Orient(a, b, p) < -geom.Eps {
			return false
		}
	}
	return true
}

// inCircumcircle reports whether p lies strictly inside the circumcircle of
// triangle ti.
func (t *triangulation) inCircumcircle(ti int32, p geom.Point) bool {
	tr := &t.tris[ti]
	return geom.InCircle(t.pts[tr.v[0]], t.pts[tr.v[1]], t.pts[tr.v[2]], p) > 0
}

type cavityEdge struct {
	a, b  int32 // directed edge, cavity interior to the left
	outer int32 // triangle outside the cavity across (a, b), or -1
}

// cavityWire is one vertex's slot in triangulation.wire.
type cavityWire struct {
	epoch       uint32
	first, last int32
}

// wireSlot returns vertex v's wire slot for the insert tagged epoch,
// clearing it when it still holds an older insert's links.
func (t *triangulation) wireSlot(v int32, epoch uint32) *cavityWire {
	w := &t.wire[v]
	if w.epoch != epoch {
		*w = cavityWire{epoch: epoch}
	}
	return w
}

// insert adds point p as vertex index pi (already appended to t.pts).
func (t *triangulation) insert(pi int32) error {
	p := t.pts[pi]
	seed, err := t.locate(p)
	if err != nil {
		return err
	}
	// Grow the cavity: all triangles whose circumcircle contains p.
	if len(t.badMark) < len(t.tris) {
		grown := make([]uint32, len(t.tris)*2)
		copy(grown, t.badMark)
		t.badMark = grown
	}
	t.curEpoch++
	epoch := t.curEpoch
	t.badList = t.badList[:0]
	t.stack = append(t.stack[:0], seed)
	t.badMark[seed] = epoch
	for len(t.stack) > 0 {
		cur := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		t.badList = append(t.badList, cur)
		for i := 0; i < 3; i++ {
			nb := t.tris[cur].n[i]
			if nb == noTri || t.badMark[nb] == epoch {
				continue
			}
			if t.inCircumcircle(nb, p) {
				t.badMark[nb] = epoch
				t.stack = append(t.stack, nb)
			}
		}
	}
	// Collect the cavity boundary (directed CCW).
	edges := t.edges[:0]
	for _, bi := range t.badList {
		tr := &t.tris[bi]
		for i := 0; i < 3; i++ {
			nb := tr.n[i]
			if nb != noTri && t.badMark[nb] == epoch {
				continue
			}
			edges = append(edges, cavityEdge{
				a:     tr.v[(i+1)%3],
				b:     tr.v[(i+2)%3],
				outer: nb,
			})
		}
	}
	t.edges = edges
	if len(edges) < 3 {
		return fmt.Errorf("voronoi: degenerate cavity (%d edges) inserting %v", len(edges), p)
	}
	// Retire the bad triangles.
	for _, bi := range t.badList {
		t.tris[bi].alive = false
		t.free = append(t.free, bi)
	}
	// Fan new triangles (pi, a, b) over the boundary edges and wire
	// adjacency through the vertex-indexed wire slots: first records the new
	// triangle built on the boundary edge starting at a vertex, last the one
	// ending there. Around the cavity cycle each vertex appears exactly once
	// as a first vertex and once as a second vertex.
	if len(t.wire) < len(t.pts) {
		grown := make([]cavityWire, 2*len(t.pts))
		copy(grown, t.wire)
		t.wire = grown
	}
	t.newTris = t.newTris[:0]
	for _, e := range edges {
		nt := t.allocTri(tri{
			v:     [3]int32{pi, e.a, e.b},
			n:     [3]int32{e.outer, noTri, noTri},
			alive: true,
		})
		t.newTris = append(t.newTris, nt)
		t.wireSlot(e.a, epoch).first = nt
		if e.outer != noTri {
			out := &t.tris[e.outer]
			for i := 0; i < 3; i++ {
				if out.v[(i+1)%3] == e.b && out.v[(i+2)%3] == e.a {
					out.n[i] = nt
					break
				}
			}
		}
	}
	for k, e := range edges {
		t.wireSlot(e.b, epoch).last = t.newTris[k]
	}
	for k, e := range edges {
		// Edge (b, pi) is opposite v[1]=a: neighbor is the new triangle
		// whose boundary edge starts at b. Edge (pi, a) is opposite
		// v[2]=b: neighbor is the new triangle whose boundary edge ends
		// at a.
		t.tris[t.newTris[k]].n[1] = t.wireSlot(e.b, epoch).first
		t.tris[t.newTris[k]].n[2] = t.wireSlot(e.a, epoch).last
	}
	t.lastTri = t.newTris[0]
	return nil
}

// fanEntry is one triangle of the star of a vertex, collected by fanOf: the
// triangle index, its two link vertices a = v[pos+1], b = v[pos+2] (so the
// triangle reads (pi, a, b) counterclockwise), and the neighbor across the
// link edge (a, b).
type fanEntry struct {
	ti    int32
	a, b  int32
	outer int32
}

// fanOf collects the star of vertex pi starting from an incident alive
// triangle. The walk visits triangles in clockwise order around pi (each step
// crosses the edge (pi, a), i.e. tr.n[(pos+2)%3]), matching cellAroundInto.
func (t *triangulation) fanOf(pi, start int32, dst []fanEntry) ([]fanEntry, error) {
	dst = dst[:0]
	cur := start
	for steps := 0; ; steps++ {
		if steps > len(t.tris)+8 {
			return nil, fmt.Errorf("voronoi: vertex %d: fan walk did not close", pi)
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
			return nil, fmt.Errorf("voronoi: vertex %d missing from triangle %d", pi, cur)
		}
		dst = append(dst, fanEntry{
			ti:    cur,
			a:     tr.v[(pos+1)%3],
			b:     tr.v[(pos+2)%3],
			outer: tr.n[pos],
		})
		next := tr.n[(pos+2)%3]
		if next == noTri {
			return nil, fmt.Errorf("voronoi: vertex %d: open fan", pi)
		}
		if next == start {
			break
		}
		cur = next
	}
	return dst, nil
}

// deleteVertex removes vertex pi from the triangulation and retriangulates
// the resulting star-shaped hole with a Delaunay ear-clipping pass
// (Devillers-style low-degree vertex deletion). start must be an alive
// triangle incident to pi. On error the triangulation is left untouched, so
// callers can fall back to a full rebuild.
func (t *triangulation) deleteVertex(pi, start int32) error {
	fan, err := t.fanOf(pi, start, nil)
	if err != nil {
		return err
	}
	m := len(fan)
	if m < 3 {
		return fmt.Errorf("voronoi: vertex %d has degenerate degree %d", pi, m)
	}
	// The walk visits the star clockwise, so the link vertices a_k read
	// clockwise around pi; reversed they form the hole polygon counter-
	// clockwise. Across CCW edge (w[j], w[j+1]) = (a_{m-1-j}, a_{m-2-j}) the
	// outside triangle is fan[m-1-j].outer: triangle k's link edge is
	// (a_k, b_k) with b_k = a_{k-1} because consecutive fan triangles share
	// the edge (pi, a).
	ws := make([]int32, m)
	outs := make([]int32, m)
	for j := 0; j < m; j++ {
		ws[j] = fan[m-1-j].a
		outs[j] = fan[m-1-j].outer
	}
	plan, err := t.earPlan(ws)
	if err != nil {
		return err
	}
	// The plan is valid: now mutate. Retire the star, then replay the plan,
	// allocating one triangle per ear and wiring adjacency as the polygon
	// shrinks.
	for _, fe := range fan {
		t.tris[fe.ti].alive = false
		t.free = append(t.free, fe.ti)
	}
	t.newTris = t.newTris[:0]
	for _, j := range plan {
		n := len(ws)
		u, v, x := ws[(j-1+n)%n], ws[j], ws[(j+1)%n]
		outUV := outs[(j-1+n)%n]
		outVX := outs[j]
		nt := t.allocTri(tri{
			v:     [3]int32{u, v, x},
			n:     [3]int32{outVX, noTri, outUV},
			alive: true,
		})
		t.newTris = append(t.newTris, nt)
		t.wireAcross(outUV, u, v, nt)
		t.wireAcross(outVX, v, x, nt)
		// The clipped ear becomes the outside triangle of the reduced
		// polygon's new edge (u, x); n[1] (across (x, u)) is wired when a
		// later ear is built on that edge.
		ws = append(ws[:j], ws[j+1:]...)
		outs[(j-1+n)%n] = nt
		outs = append(outs[:j], outs[j+1:]...)
	}
	// Final triangle over the remaining three vertices.
	u, v, x := ws[0], ws[1], ws[2]
	nt := t.allocTri(tri{
		v:     [3]int32{u, v, x},
		n:     [3]int32{outs[1], outs[2], outs[0]},
		alive: true,
	})
	t.newTris = append(t.newTris, nt)
	t.wireAcross(outs[0], u, v, nt)
	t.wireAcross(outs[1], v, x, nt)
	t.wireAcross(outs[2], x, u, nt)
	t.lastTri = nt
	return nil
}

// icTol returns the cocircularity tie tolerance for the determinant
// geom.InCircle(a, b, c, d). The determinant multiplies the coordinates
// translated by d, so the threshold scales with the fourth power of their
// magnitude — the size of the hole or triangle, not its distance from the
// origin. Scaled by absolute coordinates, it would accept ears whose
// circumcircle strictly contains another vertex wherever the data sits far
// from the origin.
func icTol(a, b, c, d geom.Point) float64 {
	m := 1.0
	for _, p := range [3]geom.Point{a, b, c} {
		m = math.Max(m, math.Max(math.Abs(p.X-d.X), math.Abs(p.Y-d.Y)))
	}
	m2 := m * m
	return 1e-10 * m2 * m2
}

// wireAcross sets nt as the neighbor of triangle outer across the directed
// edge (a, b) of nt (outer traverses it b→a). No-op for noTri.
func (t *triangulation) wireAcross(outer, a, b, nt int32) {
	if outer == noTri {
		return
	}
	o := &t.tris[outer]
	for i := 0; i < 3; i++ {
		if o.v[(i+1)%3] == b && o.v[(i+2)%3] == a {
			o.n[i] = nt
			return
		}
	}
}

// earPlan computes a Delaunay ear-clipping order for the CCW polygon ws
// without touching the triangulation: each entry is the index (in the
// then-current shrinking polygon) of a strictly convex ear whose
// circumcircle contains no other polygon vertex. The plan has exactly
// len(ws)-3 entries; the last three vertices form the final triangle. An
// error means no valid ear was found (numerically degenerate hole) and the
// caller must not mutate.
func (t *triangulation) earPlan(ws []int32) ([]int, error) {
	poly := append([]int32(nil), ws...)
	plan := make([]int, 0, len(ws)-3)
	for len(poly) > 3 {
		best := -1
		n := len(poly)
		for j := 0; j < n; j++ {
			u, v, x := poly[(j-1+n)%n], poly[j], poly[(j+1)%n]
			pu, pv, px := t.pts[u], t.pts[v], t.pts[x]
			if geom.Orient(pu, pv, px) <= geom.Eps {
				continue
			}
			ok := true
			for k := 0; k < n; k++ {
				y := poly[k]
				if y == u || y == v || y == x {
					continue
				}
				py := t.pts[y]
				// "Strictly inside beyond float noise": the InCircle
				// determinant scales with coord⁴, so the tie tolerance must
				// too, or exactly-cocircular holes (grid data) reject every
				// ear. Accepting a tie picks one of the equally-Delaunay
				// triangulations.
				if geom.InCircle(pu, pv, px, py) > icTol(pu, pv, px, py) {
					ok = false
					break
				}
			}
			if ok {
				best = j
				break
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("voronoi: no Delaunay ear in hole polygon of %d vertices", n)
		}
		plan = append(plan, best)
		poly = append(poly[:best], poly[best+1:]...)
	}
	// The final triangle must be non-degenerate and correctly oriented.
	if geom.Orient(t.pts[poly[0]], t.pts[poly[1]], t.pts[poly[2]]) <= geom.Eps {
		return nil, fmt.Errorf("voronoi: degenerate final triangle in hole retriangulation")
	}
	return plan, nil
}

// circumcenter returns the circumcenter of triangle ti. Degenerate (nearly
// collinear) triangles fall back to the centroid, which only occurs for
// slivers against the frame and is removed by clipping.
func (t *triangulation) circumcenter(ti int32) geom.Point {
	tr := &t.tris[ti]
	a, b, c := t.pts[tr.v[0]], t.pts[tr.v[1]], t.pts[tr.v[2]]
	if cc, ok := geom.Circumcenter(a, b, c); ok {
		return cc
	}
	return geom.Point{X: (a.X + b.X + c.X) / 3, Y: (a.Y + b.Y + c.Y) / 3}
}

// mortonKey interleaves the bits of the quantized coordinates, giving a
// space-filling insertion order that keeps the locate walk short.
func mortonKey(p geom.Point, origin geom.Point, invScale float64) uint64 {
	qx := uint32(math.Min(math.Max((p.X-origin.X)*invScale, 0), 65535))
	qy := uint32(math.Min(math.Max((p.Y-origin.Y)*invScale, 0), 65535))
	return spread(qx) | spread(qy)<<1
}

func spread(v uint32) uint64 {
	x := uint64(v) & 0xFFFF
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// sortMorton returns site indices ordered along a Morton curve.
func sortMorton(sites []geom.Point, bounds geom.Rect) []int {
	w := math.Max(bounds.Width(), 1e-12)
	h := math.Max(bounds.Height(), 1e-12)
	inv := 65535 / math.Max(w, h)
	order := make([]int, len(sites))
	keys := make([]uint64, len(sites))
	for i, p := range sites {
		order[i] = i
		keys[i] = mortonKey(p, bounds.Min, inv)
	}
	sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	return order
}
