package fermat

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"molq/internal/geom"
)

// orderTestGroups draws ng groups of minPts–6 points in [0,100]², a sixth
// of them collinear (points on a random line, or all coincident when the
// line degenerates).
func orderTestGroups(r *rand.Rand, ng, minPts int) [][]geom.Point {
	base := make([][]geom.Point, ng)
	for gi := range base {
		pts := make([]geom.Point, minPts+r.Intn(7-minPts))
		o := geom.Pt(r.Float64()*100, r.Float64()*100)
		dir := geom.Pt(r.Float64()-0.5, r.Float64()-0.5)
		if r.Intn(4) == 0 {
			dir = geom.Point{}
		}
		collinear := r.Intn(6) == 0
		for k := range pts {
			if collinear {
				pts[k] = o.Add(dir.Scale(r.Float64() * 80))
			} else {
				pts[k] = geom.Pt(r.Float64()*100, r.Float64()*100)
			}
		}
		base[gi] = pts
	}
	return base
}

// orderTestProblems weights the shared groups nv times (weights drawn from
// [1, 1+spread), optional offsets) and returns the problems twice over one
// geometry each: scanned in index order, and bound-ordered with MinW set.
// A small spread keeps MinW close to every weight, so the stop fires early.
func orderTestProblems(r *rand.Rand, base [][]geom.Point, nv int, spread float64, withOffsets bool) (plain, ordered []FlatProblem) {
	for vi := 0; vi < nv; vi++ {
		groups := make([]Group, len(base))
		var offsets []float64
		if withOffsets {
			offsets = make([]float64, len(base))
		}
		for gi, pts := range base {
			g := make(Group, len(pts))
			for k, p := range pts {
				g[k] = WeightedPoint{P: p, W: 1 + r.Float64()*spread}
			}
			groups[gi] = g
			if withOffsets {
				offsets[gi] = r.Float64() * 5
			}
		}
		plain = append(plain, flatten(groups, offsets))
	}
	for _, p := range plain {
		g := *p.Geom
		g.Order = g.BoundOrder()
		p.Geom = &g
		p.MinW = minWeight(&g)
		ordered = append(ordered, p)
	}
	return plain, ordered
}

// minWeight is the smallest Base of a geometry in the Scale = {1} form,
// the tightest valid MinW.
func minWeight(f *FlatGroups) float64 {
	m := math.Inf(1)
	for _, b := range f.Base {
		m = min(m, b)
	}
	return m
}

// nonEmpty counts the groups with at least one point.
func nonEmpty(f *FlatGroups) int {
	n := 0
	for gi := 0; gi < f.Len(); gi++ {
		if f.Starts[gi+1] > f.Starts[gi] {
			n++
		}
	}
	return n
}

// TestBoundOrderedScanMatchesIndexOrder checks that the bound-ordered scan
// with its early stop returns the index-order scan's answer bit for bit —
// location, cost and winning group — for single problems at one and four
// workers and for a warm-started multi-problem batch, with and without
// offsets. Half the trials draw groups of 0–6 points; the other half leave
// out the zero-cost single points, which would otherwise win at once. Every
// group the stop skips must still count in Problems, and the stop must
// actually skip work.
func TestBoundOrderedScanMatchesIndexOrder(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	ctx := context.Background()
	plainSolves, orderedSolves := 0, 0
	for trial := 0; trial < 400; trial++ {
		base := orderTestGroups(r, 5+r.Intn(60), []int{0, 2}[trial/4%2])
		spread := []float64{0.25, 3}[trial/2%2]
		plain, ordered := orderTestProblems(r, base, 1+r.Intn(4), spread, trial%2 == 1)
		groups := nonEmpty(plain[0].Geom)
		if groups == 0 {
			continue
		}
		for _, workers := range []int{1, 4} {
			for vi := range plain {
				want, err := CostBoundMultiBatchFlatCtx(ctx, plain[vi:vi+1], Options{}, workers)
				if err != nil {
					t.Fatal(err)
				}
				got, err := CostBoundMultiBatchFlatCtx(ctx, ordered[vi:vi+1], Options{}, workers)
				if err != nil {
					t.Fatal(err)
				}
				checkBatchesEqual(t, "single", want, got)
				if got[0].Stats.Problems != groups {
					t.Fatalf("trial %d workers %d: ordered Problems %d, want %d non-empty groups", trial, workers, got[0].Stats.Problems, groups)
				}
				if workers == 1 {
					plainSolves += want[0].Stats.ExactSolves + want[0].Stats.PrunedGroups
					orderedSolves += got[0].Stats.ExactSolves + got[0].Stats.PrunedGroups
				}
			}
			want, err := CostBoundMultiBatchFlatCtx(ctx, plain, Options{}, workers)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CostBoundMultiBatchFlatCtx(ctx, ordered, Options{}, workers)
			if err != nil {
				t.Fatal(err)
			}
			checkBatchesEqual(t, "multi", want, got)
		}
	}
	if orderedSolves >= plainSolves {
		t.Fatalf("ordered scans solved %d groups, index-order scans %d: the stop skipped nothing", orderedSolves, plainSolves)
	}
}

// TestBoundOrderSortsByKey checks BoundOrder returns a permutation sorted by
// scanKey with ties in index order, over groups with many equal keys.
func TestBoundOrderSortsByKey(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	base := orderTestGroups(r, 300, 0)
	for gi := 0; gi < len(base); gi += 3 {
		base[(gi*7)%len(base)] = base[gi] // duplicate geometry, equal keys
	}
	plain, _ := orderTestProblems(r, base, 1, 1, false)
	f := plain[0].Geom
	order := f.BoundOrder()
	seen := make([]bool, f.Len())
	for rank, gi := range order {
		if seen[gi] {
			t.Fatalf("group %d appears twice", gi)
		}
		seen[gi] = true
		if rank == 0 {
			continue
		}
		prev := order[rank-1]
		kp, k := f.scanKey(int(prev)), f.scanKey(int(gi))
		if kp > k || kp == k && prev > gi {
			t.Fatalf("rank %d: group %d (key %x) after group %d (key %x)", rank, gi, k, prev, kp)
		}
	}
	if len(order) != f.Len() {
		t.Fatalf("%d ranks for %d groups", len(order), f.Len())
	}
}

// TestValidateOrder pins the flat driver's checks of the order fields.
func TestValidateOrder(t *testing.T) {
	p := flatten([]Group{{wp(0, 0, 1)}, {wp(1, 1, 1), wp(2, 2, 1)}}, nil)
	p.Geom.Order = []int32{0}
	if _, err := CostBoundMultiBatchFlatCtx(context.Background(), []FlatProblem{p}, Options{}, 1); err != ErrBadFlat {
		t.Fatalf("short order: got %v, want ErrBadFlat", err)
	}
	p.Geom.Order = p.Geom.BoundOrder()
	p.MinW = -1
	if _, err := CostBoundMultiBatchFlatCtx(context.Background(), []FlatProblem{p}, Options{}, 1); err != ErrBadFlat {
		t.Fatalf("negative MinW: got %v, want ErrBadFlat", err)
	}
}
