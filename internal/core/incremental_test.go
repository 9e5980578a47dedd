package core

import (
	"math"
	"math/rand"
	"testing"

	"molq/internal/geom"
	"molq/internal/voronoi"
)

// dynSet drives a mutable object set of one type through voronoi.Dynamic,
// the substrate SpliceOverlap is designed around: mutations report exact
// dirty-neighbor sets and clean cells stay bit-identical.
type dynSet struct {
	dyn     *voronoi.Dynamic
	objs    []Object // slot-aligned
	typeIdx int
	nextID  int
}

func newDynSet(t *testing.T, r *rand.Rand, typeIdx, n int) *dynSet {
	t.Helper()
	objs := makeSet(r, typeIdx, n)
	sites := make([]geom.Point, n)
	for i, o := range objs {
		sites[i] = o.Loc
	}
	dyn, err := voronoi.NewDynamic(sites, testBounds)
	if err != nil {
		t.Fatal(err)
	}
	return &dynSet{dyn: dyn, objs: objs, typeIdx: typeIdx, nextID: n}
}

func (s *dynSet) basic(t *testing.T, mode Mode) *MOVD {
	t.Helper()
	d, err := s.dyn.Diagram()
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromVoronoi(d, s.objs, s.typeIdx, mode)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// patch builds the single-type MOVD of the given slots' current cells.
func (s *dynSet) patch(t *testing.T, mode Mode, slots []int) *MOVD {
	t.Helper()
	m := &MOVD{Types: []int{s.typeIdx}, Bounds: testBounds, Mode: mode}
	for _, slot := range slots {
		if !s.dyn.Alive(slot) {
			continue
		}
		cell, err := s.dyn.Cell(slot)
		if err != nil {
			t.Fatal(err)
		}
		if cell.IsEmpty() {
			continue
		}
		ovr := OVR{MBR: cell.Bounds(), POIs: []Object{s.objs[slot]}}
		if mode == RRB {
			ovr.Region = cell
		}
		m.OVRs = append(m.OVRs, ovr)
	}
	return m
}

func (s *dynSet) liveSlots() []int {
	var out []int
	for i := 0; i < s.dyn.Slots(); i++ {
		if s.dyn.Alive(i) {
			out = append(out, i)
		}
	}
	return out
}

// mutate performs one random insert or delete and returns the slots whose
// cells changed (mutated slot included) and the dirty object-ID set.
func (s *dynSet) mutate(t *testing.T, r *rand.Rand) (touched []int, dirtyIDs map[int]bool) {
	t.Helper()
	dirtyIDs = make(map[int]bool)
	if r.Intn(2) == 0 && s.dyn.Len() > 4 {
		live := s.liveSlots()
		victim := live[r.Intn(len(live))]
		dirty, err := s.dyn.Delete(victim)
		if err != nil {
			t.Fatalf("delete: %v", err)
		}
		touched = append(dirty, victim)
		dirtyIDs[s.objs[victim].ID] = true
		for _, sl := range dirty {
			dirtyIDs[s.objs[sl].ID] = true
		}
		return touched, dirtyIDs
	}
	p := geom.Pt(r.Float64()*1000, r.Float64()*1000)
	slot, dirty, err := s.dyn.Insert(p)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	obj := Object{ID: s.nextID, Type: s.typeIdx, Loc: p, TypeWeight: 1, ObjWeight: 1}
	s.nextID++
	if slot != len(s.objs) {
		t.Fatalf("slot %d, want %d", slot, len(s.objs))
	}
	s.objs = append(s.objs, obj)
	touched = append(dirty, slot)
	dirtyIDs[obj.ID] = true
	for _, sl := range dirty {
		dirtyIDs[s.objs[sl].ID] = true
	}
	return touched, dirtyIDs
}

// movdKeyed summarises an MOVD per combination key for set equality.
type keyedOVR struct {
	count int
	area  float64
	mbr   geom.Rect
}

func keyed(m *MOVD) map[string]keyedOVR {
	out := make(map[string]keyedOVR, len(m.OVRs))
	for i := range m.OVRs {
		o := &m.OVRs[i]
		e := out[o.Key()]
		e.count++
		if m.Mode == RRB {
			e.area += o.Region.Area()
		}
		if e.count == 1 {
			e.mbr = o.MBR
		} else {
			e.mbr = e.mbr.Union(o.MBR)
		}
		out[o.Key()] = e
	}
	return out
}

func requireEquivalent(t *testing.T, got, want *MOVD, ctx string) {
	t.Helper()
	gk, wk := keyed(got), keyed(want)
	if len(gk) != len(wk) {
		t.Fatalf("%s: %d combinations, want %d", ctx, len(gk), len(wk))
	}
	const tol = 1e-6
	for k, w := range wk {
		g, ok := gk[k]
		if !ok {
			t.Fatalf("%s: missing combination %s", ctx, k)
		}
		if g.count != w.count {
			t.Fatalf("%s: combination %s has %d OVRs, want %d", ctx, k, g.count, w.count)
		}
		if math.Abs(g.area-w.area) > tol {
			t.Fatalf("%s: combination %s area %v, want %v", ctx, k, g.area, w.area)
		}
		if g.mbr.Min.Dist(w.mbr.Min) > tol || g.mbr.Max.Dist(w.mbr.Max) > tol {
			t.Fatalf("%s: combination %s MBR %v, want %v", ctx, k, g.mbr, w.mbr)
		}
	}
}

func TestSpliceOverlapEquivalence(t *testing.T) {
	for _, mode := range []Mode{RRB, MBRB} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			sets := []*dynSet{
				newDynSet(t, r, 0, 18),
				newDynSet(t, r, 1, 14),
				newDynSet(t, r, 2, 10),
			}
			basics := make([]*MOVD, len(sets))
			for i, s := range sets {
				basics[i] = s.basic(t, mode)
			}
			full, _, err := Overlap(nil, 1, nil, basics...)
			if err != nil {
				t.Fatal(err)
			}
			for op := 0; op < 30; op++ {
				ti := r.Intn(len(sets))
				s := sets[ti]
				touched, dirtyIDs := s.mutate(t, r)
				patch := s.patch(t, mode, touched)
				var others []*MOVD
				for i, b := range basics {
					if i != ti {
						others = append(others, b)
					}
				}
				spliced, _, err := SpliceOverlap(full, ti, dirtyIDs, patch, others, nil)
				if err != nil {
					t.Fatalf("op %d: splice: %v", op, err)
				}
				if err := spliced.Validate(); err != nil {
					t.Fatalf("op %d: spliced diagram invalid: %v", op, err)
				}
				basics[ti] = s.basic(t, mode)
				fresh, _, err := Overlap(nil, 1, nil, basics...)
				if err != nil {
					t.Fatal(err)
				}
				requireEquivalent(t, spliced, fresh, "op")
				full = spliced
			}
		})
	}
}

func TestSpliceOverlapOperandChecks(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a := basicMOVD(t, makeSet(r, 0, 6), RRB)
	b := basicMOVD(t, makeSet(r, 1, 6), RRB)
	full, _, err := Overlap(nil, 1, nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	patch := &MOVD{Types: []int{0}, Bounds: testBounds, Mode: RRB}
	// Wrong patch type.
	if _, _, err := SpliceOverlap(full, 1, nil, patch, []*MOVD{a}, nil); err == nil {
		t.Fatal("want error for patch type mismatch")
	}
	// Repeated type in operands.
	if _, _, err := SpliceOverlap(full, 0, nil, patch, []*MOVD{a}, nil); err == nil {
		t.Fatal("want error for repeated type")
	}
	// Missing type coverage.
	if _, _, err := SpliceOverlap(full, 0, nil, patch, nil, nil); err == nil {
		t.Fatal("want error for missing type")
	}
	// Mode mismatch.
	bm := basicMOVD(t, makeSet(r, 1, 6), MBRB)
	if _, _, err := SpliceOverlap(full, 0, nil, patch, []*MOVD{bm}, nil); err == nil {
		t.Fatal("want error for mode mismatch")
	}
	// Happy path with an empty patch: pure keep.
	got, _, err := SpliceOverlap(full, 0, map[int]bool{99: true}, patch, []*MOVD{b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireEquivalent(t, got, full, "empty patch")
}
