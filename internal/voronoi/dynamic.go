package voronoi

import (
	"errors"
	"fmt"
	"math"

	"molq/internal/geom"
	"molq/internal/polyclip"
)

// Dynamic is a maintained Voronoi diagram: a long-lived Delaunay
// triangulation supporting incremental site insertion (Bowyer–Watson, the
// same machinery Compute uses) and site deletion (ear retriangulation of the
// star-shaped hole). Each mutation reports the set of neighboring sites whose
// cells may have changed — exactly the Delaunay link of the mutated vertex —
// so callers can repair only the dirty region of derived structures instead
// of rebuilding the world.
//
// Sites are addressed by stable integer slots assigned by Insert (and
// NewDynamic, which assigns 0..n-1 in input order). Slots are never reused.
// Dynamic is not safe for concurrent use; callers serialise mutations and
// cell extraction.
type Dynamic struct {
	tr     *triangulation
	bounds geom.Rect // clip rectangle for extracted cells
	safe   geom.Rect // inserts outside this rectangle are rejected
	sites  []geom.Point
	vert   []int32       // slot → triangulation vertex, -1 once deleted
	slotOf map[int32]int // triangulation vertex → slot
	taken  map[geom.Point]int
	live   int
	// vertTri[v] is an alive triangle incident to vertex v, repaired eagerly
	// from triangulation.newTris after every mutation.
	vertTri []int32
	// scratch
	clip polyclip.ClipBuf
	fan  geom.Polygon
	star []fanEntry
}

// Sentinel errors callers distinguish to fall back to a full rebuild.
var (
	// ErrOutOfFrame reports an insert outside the triangulation's safe
	// region: the frame built at construction cannot enclose the point with
	// enough margin for exact clipped cells.
	ErrOutOfFrame = errors.New("voronoi: insert outside dynamic frame")
	// ErrDuplicateSite reports an insert at an existing site's location (or
	// duplicates in NewDynamic's input).
	ErrDuplicateSite = errors.New("voronoi: duplicate site")
	// ErrDeadSlot reports a Delete or Cell on a slot already deleted or
	// never assigned.
	ErrDeadSlot = errors.New("voronoi: dead or unknown site slot")
)

// NewDynamic builds a maintained diagram over the given sites, clipped to
// bounds. Unlike Compute, duplicate sites are an error (ErrDuplicateSite):
// a maintained diagram needs every slot to own a distinct cell.
func NewDynamic(sites []geom.Point, bounds geom.Rect) (*Dynamic, error) {
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
	// The frame margin is twice Compute's so that inserts may land anywhere
	// in the safe region — ext grown by one diameter — while frame-adjacent
	// circumcenters still fall far outside bounds and clipped cells stay
	// exact.
	margin := 8 * diam
	frame := geom.Rect{
		Min: geom.Point{X: ext.Min.X - margin, Y: ext.Min.Y - margin},
		Max: geom.Point{X: ext.Max.X + margin, Y: ext.Max.Y + margin},
	}
	safe := geom.Rect{
		Min: geom.Point{X: ext.Min.X - diam, Y: ext.Min.Y - diam},
		Max: geom.Point{X: ext.Max.X + diam, Y: ext.Max.Y + diam},
	}
	d := &Dynamic{
		tr:     newTriangulation(len(sites), frame),
		bounds: bounds,
		safe:   safe,
		sites:  make([]geom.Point, len(sites)),
		vert:   make([]int32, len(sites)),
		slotOf: make(map[int32]int, len(sites)),
		taken:  make(map[geom.Point]int, len(sites)),
	}
	copy(d.sites, sites)
	d.vertTri = append(d.vertTri, noTri, noTri, noTri, noTri) // frame vertices
	order := sortMorton(sites, ext)
	for _, si := range order {
		p := sites[si]
		if _, dup := d.taken[p]; dup {
			return nil, fmt.Errorf("%w: %v", ErrDuplicateSite, p)
		}
		d.taken[p] = si
		d.tr.pts = append(d.tr.pts, p)
		pi := int32(len(d.tr.pts) - 1)
		d.vert[si] = pi
		d.slotOf[pi] = si
		if err := d.tr.insert(pi); err != nil {
			return nil, err
		}
		d.vertTri = append(d.vertTri, noTri)
		d.repairVertTri()
	}
	d.live = len(sites)
	return d, nil
}

// Bounds returns the clip rectangle of extracted cells.
func (d *Dynamic) Bounds() geom.Rect { return d.bounds }

// Slots reports the total number of slots ever assigned (live or dead);
// valid slots are 0..Slots()-1.
func (d *Dynamic) Slots() int { return len(d.sites) }

// Alive reports whether slot holds a live site.
func (d *Dynamic) Alive(slot int) bool {
	return slot >= 0 && slot < len(d.vert) && d.vert[slot] >= 0
}

// repairVertTri points vertTri at the triangles created by the latest
// triangulation mutation, guaranteeing every vertex of a new triangle has a
// valid incident triangle. Vertices all of whose incident triangles died are
// exactly the deleted vertex (cleared by Delete) — every survivor of a
// cavity is on its boundary and therefore in some new triangle.
func (d *Dynamic) repairVertTri() {
	for _, ti := range d.tr.newTris {
		tr := &d.tr.tris[ti]
		for _, v := range tr.v {
			d.vertTri[v] = ti
		}
	}
}

// Insert adds a site and returns its new slot plus the slots whose cells may
// have changed (the Delaunay link of the new vertex; the new slot itself is
// not included). ErrOutOfFrame and ErrDuplicateSite leave the diagram
// untouched; any other error means the triangulation is corrupt and the
// Dynamic must be discarded.
func (d *Dynamic) Insert(p geom.Point) (slot int, dirty []int, err error) {
	if !d.safe.Contains(p) {
		return -1, nil, fmt.Errorf("%w: %v outside %v", ErrOutOfFrame, p, d.safe)
	}
	if _, dup := d.taken[p]; dup {
		return -1, nil, fmt.Errorf("%w: %v", ErrDuplicateSite, p)
	}
	d.tr.pts = append(d.tr.pts, p)
	pi := int32(len(d.tr.pts) - 1)
	if err := d.tr.insert(pi); err != nil {
		return -1, nil, err
	}
	d.vertTri = append(d.vertTri, noTri)
	d.repairVertTri()
	slot = len(d.sites)
	d.sites = append(d.sites, p)
	d.vert = append(d.vert, pi)
	d.slotOf[pi] = slot
	d.taken[p] = slot
	d.live++
	dirty, err = d.linkSlots(pi)
	if err != nil {
		return slot, nil, err
	}
	return slot, dirty, nil
}

// Delete removes the site at slot and returns the slots whose cells may have
// changed (the Delaunay link of the removed vertex before removal).
// ErrDeadSlot leaves the diagram untouched, as does a retriangulation
// planning failure (degenerate hole geometry) — callers may then rebuild.
func (d *Dynamic) Delete(slot int) (dirty []int, err error) {
	if !d.Alive(slot) {
		return nil, ErrDeadSlot
	}
	pi := d.vert[slot]
	start, err := d.incident(pi)
	if err != nil {
		return nil, err
	}
	dirty, err = d.linkSlots(pi)
	if err != nil {
		return nil, err
	}
	if err := d.tr.deleteVertex(pi, start); err != nil {
		return nil, err
	}
	d.repairVertTri()
	d.vertTri[pi] = noTri
	delete(d.slotOf, pi)
	delete(d.taken, d.sites[slot])
	d.vert[slot] = -1
	d.live--
	return dirty, nil
}

// linkSlots returns the slots of the real (non-frame) sites adjacent to
// vertex pi in the Delaunay triangulation.
func (d *Dynamic) linkSlots(pi int32) ([]int, error) {
	start, err := d.incident(pi)
	if err != nil {
		return nil, err
	}
	d.star, err = d.tr.fanOf(pi, start, d.star[:0])
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, len(d.star))
	for _, fe := range d.star {
		if fe.a < 4 { // frame vertex
			continue
		}
		s, ok := d.slotOf[fe.a]
		if !ok {
			return nil, fmt.Errorf("voronoi: vertex %d has no slot", fe.a)
		}
		out = append(out, s)
	}
	return out, nil
}

// incident returns an alive triangle incident to vertex pi, repairing the
// cached entry by exhaustive scan if it went stale (which repairVertTri
// should prevent).
func (d *Dynamic) incident(pi int32) (int32, error) {
	if ti := d.vertTri[pi]; ti != noTri && d.tr.tris[ti].alive {
		tr := &d.tr.tris[ti]
		if tr.v[0] == pi || tr.v[1] == pi || tr.v[2] == pi {
			return ti, nil
		}
	}
	for i := range d.tr.tris {
		if !d.tr.tris[i].alive {
			continue
		}
		tr := &d.tr.tris[i]
		if tr.v[0] == pi || tr.v[1] == pi || tr.v[2] == pi {
			d.vertTri[pi] = int32(i)
			return int32(i), nil
		}
	}
	return noTri, fmt.Errorf("voronoi: vertex %d has no incident triangle", pi)
}

// Cell extracts the current clipped cell of a live slot: the convex CCW
// polygon of circumcenters of its incident triangles intersected with
// Bounds. Returns a polygon the caller owns; nil (with nil error) when the
// cell misses Bounds entirely.
func (d *Dynamic) Cell(slot int) (geom.Polygon, error) {
	if !d.Alive(slot) {
		return nil, ErrDeadSlot
	}
	pi := d.vert[slot]
	start, err := d.incident(pi)
	if err != nil {
		return nil, err
	}
	d.star, err = d.tr.fanOf(pi, start, d.star[:0])
	if err != nil {
		return nil, err
	}
	d.fan = d.fan[:0]
	for _, fe := range d.star {
		d.fan = append(d.fan, d.tr.circumcenter(fe.ti))
	}
	return clipCell(&d.clip, d.fan.DedupInPlace(), d.bounds), nil
}

// Diagram materialises the current state as a static Diagram over the live
// slots: Sites[slot] and Cells[slot] for live slots, zero/nil entries for
// dead ones. Dead slots look like Compute's duplicate sites (nil cell), so
// the result is consumable by core.FromVoronoi-style code that tolerates
// nil cells.
func (d *Dynamic) Diagram() (*Diagram, error) {
	cells := make([]geom.Polygon, len(d.sites))
	for slot := range d.sites {
		if !d.Alive(slot) {
			continue
		}
		c, err := d.Cell(slot)
		if err != nil {
			return nil, fmt.Errorf("voronoi: slot %d: %w", slot, err)
		}
		cells[slot] = c
	}
	sites := make([]geom.Point, len(d.sites))
	copy(sites, d.sites)
	return &Diagram{Sites: sites, Cells: cells, Bounds: d.bounds}, nil
}
