package voronoi

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"molq/internal/geom"
)

func testBounds() geom.Rect {
	return geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 100, Y: 100}}
}

func randSites(rng *rand.Rand, n int) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return out
}

// pointSegDist returns the distance from p to segment ab.
func pointSegDist(p, a, b geom.Point) float64 {
	abx, aby := b.X-a.X, b.Y-a.Y
	apx, apy := p.X-a.X, p.Y-a.Y
	den := abx*abx + aby*aby
	t := 0.0
	if den > 0 {
		t = (apx*abx + apy*aby) / den
		t = math.Max(0, math.Min(1, t))
	}
	dx := p.X - (a.X + t*abx)
	dy := p.Y - (a.Y + t*aby)
	return math.Hypot(dx, dy)
}

// boundaryDist returns the distance from p to the boundary of polygon pg.
func boundaryDist(p geom.Point, pg geom.Polygon) float64 {
	d := math.Inf(1)
	for i := range pg {
		d = math.Min(d, pointSegDist(p, pg[i], pg[(i+1)%len(pg)]))
	}
	return d
}

// polyApproxEq reports whether two convex cells describe the same region
// within tol: areas match and every vertex of each lies within tol of the
// other's boundary. Handles nil/sliver cells.
func polyApproxEq(a, b geom.Polygon, tol float64) bool {
	aEmpty := a.IsEmpty() || a.Area() < tol
	bEmpty := b.IsEmpty() || b.Area() < tol
	if aEmpty || bEmpty {
		return aEmpty == bEmpty
	}
	if math.Abs(a.Area()-b.Area()) > tol*math.Max(1, math.Max(a.Area(), b.Area())) {
		return false
	}
	for _, p := range a {
		if boundaryDist(p, b) > tol {
			return false
		}
	}
	for _, p := range b {
		if boundaryDist(p, a) > tol {
			return false
		}
	}
	return true
}

// liveSites returns the current live slot → site mapping as parallel slices.
func liveSites(d *Dynamic) ([]int, []geom.Point) {
	var slots []int
	var pts []geom.Point
	for s := 0; s < d.Slots(); s++ {
		if d.Alive(s) {
			slots = append(slots, s)
			pts = append(pts, mustSite(d, s))
		}
	}
	return slots, pts
}

func mustSite(d *Dynamic, slot int) geom.Point {
	if !d.Alive(slot) {
		panic(ErrDeadSlot)
	}
	return d.sites[slot]
}

// checkAgainstCompute rebuilds the diagram of the live sites from scratch and
// compares every cell.
func checkAgainstCompute(t *testing.T, d *Dynamic, tol float64) {
	t.Helper()
	slots, pts := liveSites(d)
	if len(pts) == 0 {
		return
	}
	ref, err := Compute(pts, d.Bounds())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	for i, slot := range slots {
		got, err := d.Cell(slot)
		if err != nil {
			t.Fatalf("Cell(%d): %v", slot, err)
		}
		if !polyApproxEq(got, ref.Cells[i], tol) {
			t.Fatalf("cell of slot %d (site %v) diverged:\n dynamic: %v\n compute: %v",
				slot, pts[i], got, ref.Cells[i])
		}
	}
}

// checkStructure validates triangulation invariants: alive triangles are CCW,
// adjacency is symmetric over shared edges, and every edge is locally
// Delaunay (within the cocircularity tolerance).
func checkStructure(t *testing.T, d *Dynamic) {
	t.Helper()
	tr := d.tr
	for ti := range tr.tris {
		tt := &tr.tris[ti]
		if !tt.alive {
			continue
		}
		a, b, c := tr.pts[tt.v[0]], tr.pts[tt.v[1]], tr.pts[tt.v[2]]
		if geom.Orient(a, b, c) <= 0 {
			t.Fatalf("triangle %d not CCW: %v %v %v", ti, a, b, c)
		}
		for i := 0; i < 3; i++ {
			nb := tt.n[i]
			if nb == noTri {
				continue
			}
			nt := &tr.tris[nb]
			if !nt.alive {
				t.Fatalf("triangle %d neighbor %d is dead", ti, nb)
			}
			// The shared edge (v[i+1], v[i+2]) must appear reversed in the
			// neighbor, which must point back.
			e1, e2 := tt.v[(i+1)%3], tt.v[(i+2)%3]
			back := -1
			for j := 0; j < 3; j++ {
				if nt.v[(j+1)%3] == e2 && nt.v[(j+2)%3] == e1 {
					back = j
					break
				}
			}
			if back < 0 {
				t.Fatalf("triangle %d edge (%d,%d) not reversed in neighbor %d", ti, e1, e2, nb)
			}
			if nt.n[back] != int32(ti) {
				t.Fatalf("triangle %d neighbor %d does not point back (has %d)", ti, nb, nt.n[back])
			}
			// Local Delaunay: the opposite vertex of the neighbor must not be
			// strictly inside this triangle's circumcircle.
			opp := nt.v[back]
			po := tr.pts[opp]
			if geom.InCircle(a, b, c, po) > icTol(a, b, c, po) {
				t.Fatalf("edge (%d,%d) of triangle %d not Delaunay: %v strictly inside", e1, e2, ti, po)
			}
		}
	}
}

func TestDynamicMatchesComputeStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 7, 40} {
		sites := randSites(rng, n)
		d, err := NewDynamic(sites, testBounds())
		if err != nil {
			t.Fatalf("n=%d: NewDynamic: %v", n, err)
		}
		checkStructure(t, d)
		checkAgainstCompute(t, d, 1e-6)
	}
}

func TestDynamicInsertEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	d, err := NewDynamic(randSites(rng, 5), testBounds())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		p := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		slot, dirty, err := d.Insert(p)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if !d.Alive(slot) {
			t.Fatalf("insert %d: slot %d not alive", i, slot)
		}
		for _, s := range dirty {
			if !d.Alive(s) || s == slot {
				t.Fatalf("insert %d: bad dirty slot %d", i, s)
			}
		}
		checkStructure(t, d)
		checkAgainstCompute(t, d, 1e-6)
	}
}

func TestDynamicDeleteEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	d, err := NewDynamic(randSites(rng, 50), testBounds())
	if err != nil {
		t.Fatal(err)
	}
	for d.live > 3 {
		slots, _ := liveSites(d)
		slot := slots[rng.Intn(len(slots))]
		dirty, err := d.Delete(slot)
		if err != nil {
			t.Fatalf("delete slot %d at %d live: %v", slot, d.live, err)
		}
		if d.Alive(slot) {
			t.Fatalf("slot %d still alive after delete", slot)
		}
		for _, s := range dirty {
			if !d.Alive(s) {
				t.Fatalf("dirty slot %d not alive after delete", s)
			}
		}
		checkStructure(t, d)
		checkAgainstCompute(t, d, 1e-6)
	}
}

func TestDynamicMixedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	d, err := NewDynamic(randSites(rng, 30), testBounds())
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 250; op++ {
		if rng.Intn(2) == 0 && d.live > 5 {
			slots, _ := liveSites(d)
			if _, err := d.Delete(slots[rng.Intn(len(slots))]); err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
		} else {
			p := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			if _, _, err := d.Insert(p); err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
		}
		checkStructure(t, d)
		if op%5 == 0 {
			checkAgainstCompute(t, d, 1e-6)
		}
	}
	checkAgainstCompute(t, d, 1e-6)
}

// TestDynamicDirtyExactness is the property the incremental MOVD splice
// relies on: cells of slots NOT reported dirty are bit-for-bit unchanged by
// a mutation.
func TestDynamicDirtyExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	d, err := NewDynamic(randSites(rng, 40), testBounds())
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[int]geom.Polygon {
		out := make(map[int]geom.Polygon)
		for s := 0; s < d.Slots(); s++ {
			if !d.Alive(s) {
				continue
			}
			c, err := d.Cell(s)
			if err != nil {
				t.Fatalf("Cell(%d): %v", s, err)
			}
			out[s] = c
		}
		return out
	}
	for op := 0; op < 120; op++ {
		before := snapshot()
		touched := make(map[int]bool)
		if rng.Intn(2) == 0 && d.live > 5 {
			slots, _ := liveSites(d)
			victim := slots[rng.Intn(len(slots))]
			dirty, err := d.Delete(victim)
			if err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
			touched[victim] = true
			for _, s := range dirty {
				touched[s] = true
			}
		} else {
			p := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			slot, dirty, err := d.Insert(p)
			if err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
			touched[slot] = true
			for _, s := range dirty {
				touched[s] = true
			}
		}
		after := snapshot()
		for s, cell := range before {
			if touched[s] || !d.Alive(s) {
				continue
			}
			if !polyApproxEq(cell, after[s], 1e-12) {
				t.Fatalf("op %d: undirty slot %d changed:\n before: %v\n after:  %v", op, s, cell, after[s])
			}
		}
	}
}

func TestDynamicErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	sites := randSites(rng, 10)
	d, err := NewDynamic(sites, testBounds())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Insert(geom.Point{X: 1e6, Y: 1e6}); !errors.Is(err, ErrOutOfFrame) {
		t.Fatalf("far insert: want ErrOutOfFrame, got %v", err)
	}
	if _, _, err := d.Insert(sites[3]); !errors.Is(err, ErrDuplicateSite) {
		t.Fatalf("dup insert: want ErrDuplicateSite, got %v", err)
	}
	if _, err := d.Delete(99); !errors.Is(err, ErrDeadSlot) {
		t.Fatalf("bad delete: want ErrDeadSlot, got %v", err)
	}
	if _, err := d.Delete(2); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := d.Delete(2); !errors.Is(err, ErrDeadSlot) {
		t.Fatalf("double delete: want ErrDeadSlot, got %v", err)
	}
	if _, err := d.Cell(2); !errors.Is(err, ErrDeadSlot) {
		t.Fatalf("dead cell: want ErrDeadSlot, got %v", err)
	}
	// All errors above must leave the diagram intact.
	checkStructure(t, d)
	checkAgainstCompute(t, d, 1e-6)

	if _, err := NewDynamic([]geom.Point{{X: 1, Y: 1}, {X: 1, Y: 1}}, testBounds()); !errors.Is(err, ErrDuplicateSite) {
		t.Fatalf("dup NewDynamic: want ErrDuplicateSite, got %v", err)
	}
}

// TestDynamicGrid stresses exactly-cocircular configurations: grid points
// make every interior Delaunay quad ambiguous and every deletion hole
// cocircular.
func TestDynamicGrid(t *testing.T) {
	var sites []geom.Point
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			sites = append(sites, geom.Point{X: 10 + float64(i)*16, Y: 10 + float64(j)*16})
		}
	}
	d, err := NewDynamic(sites, testBounds())
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstCompute(t, d, 1e-6)
	rng := rand.New(rand.NewSource(77))
	for k := 0; k < 20; k++ {
		slots, _ := liveSites(d)
		if _, err := d.Delete(slots[rng.Intn(len(slots))]); err != nil {
			t.Fatalf("grid delete %d: %v", k, err)
		}
		checkAgainstCompute(t, d, 1e-6)
	}
	// Re-insert off-grid and on-grid-line points.
	for k := 0; k < 20; k++ {
		p := geom.Point{X: 10 + float64(rng.Intn(80)), Y: 10 + float64(rng.Intn(80))}
		_, _, err := d.Insert(p)
		if err != nil {
			if errors.Is(err, ErrDuplicateSite) {
				continue
			}
			t.Fatalf("grid insert %d: %v", k, err)
		}
		checkAgainstCompute(t, d, 1e-6)
	}
}

// TestDynamicDeleteFarFromOrigin deletes most of a dense cluster of sites
// whose coordinates are in the tens of thousands while the cluster itself
// is small. The hole retriangulation's cocircularity tolerance must scale
// with the hole, not with the absolute coordinates: scaled by the latter it
// accepts ears whose circumcircle strictly contains another vertex, so the
// repaired cells drift from a rebuild, or a later hole has no valid ear.
func TestDynamicDeleteFarFromOrigin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bounds := geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 20000, Y: 20000}}
	sites := make([]geom.Point, 400)
	for i := range sites {
		sites[i] = geom.Point{X: 15000 + rng.Float64()*300, Y: 15000 + rng.Float64()*300}
	}
	d, err := NewDynamic(sites, bounds)
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; d.live > 20; op++ {
		slots, _ := liveSites(d)
		if _, err := d.Delete(slots[rng.Intn(len(slots))]); err != nil {
			t.Fatalf("delete %d: %v", op, err)
		}
		if op%10 == 0 {
			checkAgainstCompute(t, d, 1e-6)
		}
	}
	checkStructure(t, d)
	checkAgainstCompute(t, d, 1e-6)
}
