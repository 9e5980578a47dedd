package core

import (
	"sync"

	"molq/internal/geom"
)

// This file holds the structure-of-arrays mirror of the sweep's hot data.
// The plane sweep of Algorithm 2 touches every OVR's MBR many times — once
// per event for the status-tree keys and once per candidate pair for the
// intersection test — but never its Region or POIs until a pair actually
// intersects. Streaming those four coordinates out of the 64-byte-plus OVR
// struct wastes most of every cache line, so the sweep works off four flat
// float64 slices instead and only dereferences the OVR structs for the
// (comparatively rare) region clips and POI merges.

// flatMBRs is one operand's OVR bounding boxes in structure-of-arrays form:
// entry i mirrors ovrs[i].MBR, and in RRB mode area[i] caches the region's
// area so the clip kernel's degenerate-operand check costs one flat load per
// pair instead of a full vertex scan. The slices are grow-only so pooled
// scratch reaches a zero-allocation steady state, and they are strictly
// read-only during a sweep — the sharded parallel engine loads them once and
// shares them across every strip's goroutine.
type flatMBRs struct {
	minX, maxX []float64
	minY, maxY []float64
	area       []float64
}

// load fills f from the OVRs' bounding boxes and region areas, reusing
// capacity. MBRB OVRs carry no region; their cached area is 0 and unused.
func (f *flatMBRs) load(ovrs []OVR) {
	n := len(ovrs)
	if cap(f.minX) < n {
		f.minX = make([]float64, n)
		f.maxX = make([]float64, n)
		f.minY = make([]float64, n)
		f.maxY = make([]float64, n)
		f.area = make([]float64, n)
	}
	f.minX = f.minX[:n]
	f.maxX = f.maxX[:n]
	f.minY = f.minY[:n]
	f.maxY = f.maxY[:n]
	f.area = f.area[:n]
	for i := range ovrs {
		o := &ovrs[i]
		f.minX[i] = o.MBR.Min.X
		f.maxX[i] = o.MBR.Max.X
		f.minY[i] = o.MBR.Min.Y
		f.maxY[i] = o.MBR.Max.Y
		if o.Region != nil {
			f.area[i] = o.Region.Area()
		} else {
			f.area[i] = 0
		}
	}
}

// activeSet is the sweep's status structure in structure-of-arrays form: the
// OVRs whose y-range currently intersects the sweep line, with their x-ranges
// mirrored into flat slices. The previous implementation was an interval
// treap; for diagrams whose OVRs tile the plane (every basic and overlapped
// Voronoi diagram) the sweep line crosses O(√n) regions, so a linear scan
// over two contiguous float64 slices beats the pointer-chasing tree walk and
// its rebalancing on both instruction count and cache behavior.
type activeSet struct {
	idx        []int32   // member OVR indices, unordered
	minX, maxX []float64 // members' x-ranges, parallel to idx
	pos        []int32   // OVR index -> slot in idx; stale for non-members
}

// reset prepares the set for a sweep over OVR indices < n.
func (s *activeSet) reset(n int) {
	s.idx = s.idx[:0]
	s.minX = s.minX[:0]
	s.maxX = s.maxX[:0]
	if cap(s.pos) < n {
		s.pos = make([]int32, n)
	}
	s.pos = s.pos[:n]
}

// insert adds OVR i with the given x-range.
func (s *activeSet) insert(i int32, minX, maxX float64) {
	s.pos[i] = int32(len(s.idx))
	s.idx = append(s.idx, i)
	s.minX = append(s.minX, minX)
	s.maxX = append(s.maxX, maxX)
}

// remove deletes OVR i by swapping the last member into its slot.
func (s *activeSet) remove(i int32) {
	p := s.pos[i]
	last := int32(len(s.idx) - 1)
	moved := s.idx[last]
	s.idx[p] = moved
	s.minX[p] = s.minX[last]
	s.maxX[p] = s.maxX[last]
	s.pos[moved] = p
	s.idx = s.idx[:last]
	s.minX = s.minX[:last]
	s.maxX = s.maxX[:last]
}

// ovrArena slab-allocates the backing arrays of cloned OVRs. Materialising
// one ⊕ result used to cost two heap allocations per emitted OVR (Region +
// POIs via OVR.Clone) — the dominant cost of an MBRB overlap once the sweep
// itself is allocation-free. The arena carves both out of chunked slabs
// instead, so a whole result costs a handful of slab allocations, and since
// geom.Point and Object are pointer-free the slabs are never scanned by the
// GC. Earlier clones hand out full-capacity subslices, so later appends can
// never clobber them; retiring a slab just drops the arena's reference while
// the emitted OVRs keep theirs alive.
//
// An arena is single-goroutine state; the parallel engine keeps one per
// strip. The OVRs it produced stay valid after the arena is gone — there is
// nothing to free, matching the copy-on-write immutability of MOVD contents.
type ovrArena struct {
	pts  []geom.Point
	objs []Object
	// Next slab sizes. Slabs start small and double per refill up to the
	// caps, so the incremental-repair path — many tiny splice sweeps, a few
	// OVRs each — doesn't pay a full-size slab per sweep, while big overlaps
	// still amortise to a handful of large slabs.
	nextPts, nextObjs int
}

const (
	arenaMinPts  = 512   // first slab: region vertices
	arenaMaxPts  = 16384 // slab growth cap: region vertices
	arenaMinObjs = 256   // first slab: POI objects
	arenaMaxObjs = 8192  // slab growth cap: POI objects
)

// clone deep-copies o like OVR.Clone, drawing the backing arrays from the
// arena's slabs.
func (ar *ovrArena) clone(o *OVR) OVR {
	c := OVR{MBR: o.MBR}
	if o.Region != nil {
		n := len(o.Region)
		if cap(ar.pts)-len(ar.pts) < n {
			size := max(ar.nextPts, arenaMinPts, n)
			ar.nextPts = min(size*2, arenaMaxPts)
			ar.pts = make([]geom.Point, 0, size)
		}
		s := len(ar.pts)
		ar.pts = append(ar.pts, o.Region...)
		c.Region = geom.Polygon(ar.pts[s:len(ar.pts):len(ar.pts)])
	}
	if o.POIs != nil {
		n := len(o.POIs)
		if cap(ar.objs)-len(ar.objs) < n {
			size := max(ar.nextObjs, arenaMinObjs, n)
			ar.nextObjs = min(size*2, arenaMaxObjs)
			ar.objs = make([]Object, 0, size)
		}
		s := len(ar.objs)
		ar.objs = append(ar.objs, o.POIs...)
		c.POIs = ar.objs[s:len(ar.objs):len(ar.objs)]
	}
	return c
}

// ovrCollector gathers one sweep's cloned OVRs before they are copied into
// a result of exactly the emitted size. Appending straight into the result
// grew it by doubling, and every doubling of a pointerful slice zeroes and
// copies the whole prefix again; the pooled collector has reached the
// working-set size after a few sweeps, so a materialised ⊕ pays one zeroed
// allocation and one copy.
type ovrCollector struct{ ovrs []OVR }

var ovrCollectorPool = sync.Pool{New: func() any { return new(ovrCollector) }}

// take returns a copy of the collected OVRs sized to fit (nil when none were
// collected, as appending to a nil result left it) and resets the collector.
func (c *ovrCollector) take() []OVR {
	var out []OVR
	if len(c.ovrs) > 0 {
		out = make([]OVR, len(c.ovrs))
		copy(out, c.ovrs)
	}
	c.reset()
	return out
}

// reset drops the collected OVRs, clearing them so a pooled collector does
// not keep their regions and POIs reachable.
func (c *ovrCollector) reset() {
	clear(c.ovrs)
	c.ovrs = c.ovrs[:0]
}
