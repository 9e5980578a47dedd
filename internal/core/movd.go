package core

import (
	"errors"
	"fmt"

	"molq/internal/geom"
	"molq/internal/voronoi"
)

// Mode selects the boundary representation used by the overlap operation.
type Mode int

const (
	// RRB (Real Region as Boundary, Sec 5.2) keeps exact convex polygon
	// boundaries for every OVR and intersects them during overlap.
	RRB Mode = iota
	// MBRB (Minimum Bounding Rectangle as Boundary, Sec 5.3) keeps only the
	// MBR of each OVR; overlap degenerates to rectangle intersection and may
	// produce false-positive OVRs.
	MBRB
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case RRB:
		return "RRB"
	case MBRB:
		return "MBRB"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// OVR is an Overlapped Voronoi Region ⟨region, pois⟩ (Eq 12, Fig 6). Region
// is the exact convex boundary in RRB mode and nil in MBRB mode; MBR is
// always populated. POIs holds exactly one object of each overlapped type.
type OVR struct {
	Region geom.Polygon
	MBR    geom.Rect
	POIs   []Object
}

// Key returns the canonical combination key of the OVR's POI group.
func (o *OVR) Key() string { return CombinationKey(o.POIs) }

// DedupKey is the compact binary form of Key (see CombinationDedupKey):
// identical across OVRs iff Key is, and much cheaper to build.
func (o *OVR) DedupKey() string { return CombinationDedupKey(o.POIs) }

// Clone returns a deep copy of the OVR: Region and POIs get fresh backing
// arrays. Streaming emit callbacks must use it to keep an emitted OVR — the
// emitted value's slices alias the sweep's pooled scratch buffers and are
// overwritten by the next candidate pair.
func (o *OVR) Clone() OVR {
	c := OVR{MBR: o.MBR}
	if o.Region != nil { // preserve nil-ness: MBRB OVRs carry no region
		c.Region = o.Region.Clone()
	}
	if o.POIs != nil {
		c.POIs = append(make([]Object, 0, len(o.POIs)), o.POIs...)
	}
	return c
}

// MOVD is a Minimum Overlapped Voronoi Diagram (Eq 13): an OVD with every
// empty OVR removed. Types records which object-set indices of 𝔼 the MOVD
// was generated from (sorted ascending).
type MOVD struct {
	Types  []int
	OVRs   []OVR
	Bounds geom.Rect
	// mode the diagram was built under; overlapping diagrams of different
	// modes is rejected.
	Mode Mode
}

// ErrModeMismatch is returned when two MOVDs built under different boundary
// modes are overlapped.
var ErrModeMismatch = errors.New("core: cannot overlap MOVDs with different boundary modes")

// Identity returns MOVD(∅) = {ℝ} (Eq 14): a single OVR covering the whole
// search space with no associated objects. It is the identity element of ⊕
// (Property 12).
func Identity(bounds geom.Rect, mode Mode) *MOVD {
	ovr := OVR{MBR: bounds}
	if mode == RRB {
		ovr.Region = geom.RectPolygon(bounds)
	}
	return &MOVD{Types: nil, OVRs: []OVR{ovr}, Bounds: bounds, Mode: mode}
}

// FromVoronoi converts an ordinary Voronoi diagram of one object set into a
// basic MOVD (Property 7: MOVD({P}) = VD(P)). objects[i] must be the object
// whose location is diagram.Sites[i]. Sites with nil cells (duplicates or
// out-of-bounds dominance) contribute no OVR.
func FromVoronoi(d *voronoi.Diagram, objects []Object, typeIndex int, mode Mode) (*MOVD, error) {
	if len(objects) != len(d.Sites) {
		return nil, fmt.Errorf("core: %d objects for %d sites", len(objects), len(d.Sites))
	}
	m := &MOVD{Types: []int{typeIndex}, Bounds: d.Bounds, Mode: mode}
	for i, cell := range d.Cells {
		if cell.IsEmpty() {
			continue
		}
		if objects[i].Loc != d.Sites[i] {
			return nil, fmt.Errorf("core: object %d location %v does not match site %v",
				i, objects[i].Loc, d.Sites[i])
		}
		ovr := OVR{MBR: cell.Bounds(), POIs: []Object{objects[i]}}
		if mode == RRB {
			ovr.Region = cell
		}
		m.OVRs = append(m.OVRs, ovr)
	}
	return m, nil
}

// FromRegions builds a basic MOVD directly from dominance regions expressed
// as MBRs — the entry point for weighted Voronoi diagrams (Sec 5.3), whose
// curved boundaries are represented only by conservative bounding boxes. It
// always produces an MBRB-mode diagram.
func FromRegions(mbrs []geom.Rect, objects []Object, typeIndex int, bounds geom.Rect) (*MOVD, error) {
	if len(objects) != len(mbrs) {
		return nil, fmt.Errorf("core: %d objects for %d regions", len(objects), len(mbrs))
	}
	m := &MOVD{Types: []int{typeIndex}, Bounds: bounds, Mode: MBRB}
	for i, r := range mbrs {
		r = r.Intersect(bounds)
		if r.IsEmpty() {
			continue
		}
		m.OVRs = append(m.OVRs, OVR{MBR: r, POIs: []Object{objects[i]}})
	}
	return m, nil
}

// CellRegion is one refined leaf cell assigned to an object: the cell's
// rectangle plus the index (into the object set) of the object owning it.
type CellRegion struct {
	Rect geom.Rect
	Obj  int
}

// FromCellRegions builds a basic RRB-mode MOVD from per-cell rectangular
// regions — the entry point for approximate weighted diagrams serving RRB
// (internal/mwvd's EachLeaf walk). Each cell becomes one OVR whose region is
// the cell rectangle clipped to bounds. Cells are conservative: an object's
// cells cover at least its true weighted dominance region, so the true
// combination at every point survives the overlap; ambiguous cells repeat
// under several objects and only add false-positive combinations, the same
// contract MBRB's boxes already rely on (Groups deduplicates them before the
// optimizer).
func FromCellRegions(cells []CellRegion, objects []Object, typeIndex int, bounds geom.Rect) (*MOVD, error) {
	m := &MOVD{Types: []int{typeIndex}, Bounds: bounds, Mode: RRB}
	for _, c := range cells {
		if c.Obj < 0 || c.Obj >= len(objects) {
			return nil, fmt.Errorf("core: cell region references object %d of %d", c.Obj, len(objects))
		}
		r := c.Rect.Intersect(bounds)
		if r.IsEmpty() {
			continue
		}
		m.OVRs = append(m.OVRs, OVR{
			Region: geom.RectPolygon(r),
			MBR:    r,
			POIs:   []Object{objects[c.Obj]},
		})
	}
	return m, nil
}

// Len returns |MOVD|, the number of (non-empty) OVRs.
func (m *MOVD) Len() int { return len(m.OVRs) }

// PointsManaged returns the boundary-representation memory metric used by
// Figs 13 and 14(d): total polygon vertices in RRB mode, two points per OVR
// (MBR corners) in MBRB mode.
func (m *MOVD) PointsManaged() int {
	if m.Mode == MBRB {
		return 2 * len(m.OVRs)
	}
	n := 0
	for i := range m.OVRs {
		n += len(m.OVRs[i].Region)
	}
	return n
}

// Groups returns the deduplicated object combinations of the MOVD — the
// Fermat-Weber problems handed to the optimizer. MBRB false positives can
// repeat a combination across several OVRs; each combination is returned
// once, in order of first occurrence.
//
// Duplicates are found without building a key per OVR: an open-addressing
// table holds each kept group's combination hash and OVR index, and a hash
// match is confirmed by comparing the two groups' (Type, ID) sequences, so
// a collision costs a probe, never a lost group.
func (m *MOVD) Groups() [][]Object {
	if len(m.OVRs) == 0 {
		return nil
	}
	type entry struct {
		hash uint64
		ovr  int32 // OVR index + 1; 0 marks an empty slot
	}
	size := 16
	for size < len(m.OVRs)+len(m.OVRs)/2 {
		size <<= 1
	}
	table := make([]entry, size)
	mask := uint64(size - 1)
	out := make([][]Object, 0, len(m.OVRs))
	for i := range m.OVRs {
		pois := m.OVRs[i].POIs
		h := combinationHash(pois)
		for slot := h & mask; ; slot = (slot + 1) & mask {
			e := &table[slot]
			if e.ovr == 0 {
				*e = entry{hash: h, ovr: int32(i + 1)}
				out = append(out, pois)
				break
			}
			if e.hash == h && sameCombination(m.OVRs[e.ovr-1].POIs, pois) {
				break // duplicate of an earlier group
			}
		}
	}
	return out
}

// Validate checks the structural invariants of the diagram and returns the
// first violation found, or nil. It is used after deserialising snapshots
// and by tests; a diagram produced by this package always validates.
//
// Invariants: every OVR's MBR is non-empty and inside Bounds; in RRB mode
// each region is non-empty, its bounding box matches the stored MBR, and in
// MBRB mode regions are absent; each OVR carries exactly one object per
// type of Types with positive weights.
func (m *MOVD) Validate() error {
	if m.Bounds.IsEmpty() {
		return fmt.Errorf("core: empty bounds")
	}
	typeSet := make(map[int]struct{}, len(m.Types))
	for i, t := range m.Types {
		if i > 0 && m.Types[i-1] >= t {
			return fmt.Errorf("core: Types not sorted/unique: %v", m.Types)
		}
		typeSet[t] = struct{}{}
	}
	const slack = 1e-6
	for i := range m.OVRs {
		o := &m.OVRs[i]
		if o.MBR.IsEmpty() {
			return fmt.Errorf("core: OVR %d has empty MBR", i)
		}
		grown := geom.Rect{
			Min: geom.Point{X: m.Bounds.Min.X - slack, Y: m.Bounds.Min.Y - slack},
			Max: geom.Point{X: m.Bounds.Max.X + slack, Y: m.Bounds.Max.Y + slack},
		}
		if !grown.ContainsRect(o.MBR) {
			return fmt.Errorf("core: OVR %d MBR %v escapes bounds %v", i, o.MBR, m.Bounds)
		}
		switch m.Mode {
		case RRB:
			if o.Region.IsEmpty() {
				return fmt.Errorf("core: OVR %d missing region in RRB mode", i)
			}
			b := o.Region.Bounds()
			if b.Min.Dist(o.MBR.Min) > slack || b.Max.Dist(o.MBR.Max) > slack {
				return fmt.Errorf("core: OVR %d MBR %v does not match region bounds %v", i, o.MBR, b)
			}
		case MBRB:
			if !o.Region.IsEmpty() {
				return fmt.Errorf("core: OVR %d carries a region in MBRB mode", i)
			}
		}
		// len(Types) == 0 covers identity diagrams with no POIs.
		if len(m.Types) > 0 && len(o.POIs) != len(m.Types) {
			return fmt.Errorf("core: OVR %d has %d POIs for %d types", i, len(o.POIs), len(m.Types))
		}
		seen := make(map[int]struct{}, len(o.POIs))
		for _, p := range o.POIs {
			if _, ok := typeSet[p.Type]; !ok {
				return fmt.Errorf("core: OVR %d has POI of unknown type %d", i, p.Type)
			}
			if _, dup := seen[p.Type]; dup {
				return fmt.Errorf("core: OVR %d has two POIs of type %d", i, p.Type)
			}
			seen[p.Type] = struct{}{}
			if p.TypeWeight <= 0 || p.ObjWeight <= 0 {
				return fmt.Errorf("core: OVR %d POI %d has non-positive weights", i, p.ID)
			}
		}
	}
	return nil
}

// typesUnion merges two sorted type-index slices.
func typesUnion(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
