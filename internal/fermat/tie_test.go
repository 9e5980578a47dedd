package fermat

import (
	"context"
	"testing"
)

// TestTiedGroupsLowestIndexWins pins the tie rule under the parallel pool:
// 64 single-point groups all cost exactly zero, so every schedule must still
// return group 0.
func TestTiedGroupsLowestIndexWins(t *testing.T) {
	groups := make([]Group, 64)
	for gi := range groups {
		groups[gi] = Group{wp(float64(gi), float64(2*gi), 1)}
	}
	p := []FlatProblem{flatten(groups, nil)}
	for run := 0; run < 300; run++ {
		out, err := CostBoundMultiBatchFlatCtx(context.Background(), p, Options{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if out[0].GroupIndex != 0 || out[0].Loc != groups[0][0].P {
			t.Fatalf("run %d: winner group %d at %v, want group 0", run, out[0].GroupIndex, out[0].Loc)
		}
	}
}

// TestWarmStartTieLowestIndexWins pins the tie rule in the warm-started
// sequential scan: problem 0's unique winner is group 2, which problem 1
// therefore evaluates first, but under problem 1's offsets group 0 ties it
// exactly. The lower index must win, as when problem 1 is solved alone.
func TestWarmStartTieLowestIndexWins(t *testing.T) {
	groups := []Group{{wp(0, 0, 1)}, {wp(5, 5, 1)}, {wp(9, 9, 1)}}
	problems := []FlatProblem{
		flatten(groups, []float64{3, 5, 1}),
		flatten(groups, []float64{1, 5, 1}),
	}
	ctx := context.Background()
	alone, err := CostBoundMultiBatchFlatCtx(ctx, problems[1:], Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if alone[0].GroupIndex != 0 {
		t.Fatalf("problem solved alone: winner group %d, want 0", alone[0].GroupIndex)
	}
	for _, workers := range []int{1, 4} {
		out, err := CostBoundMultiBatchFlatCtx(ctx, problems, Options{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if out[0].GroupIndex != 2 {
			t.Fatalf("workers=%d problem 0: winner group %d, want 2", workers, out[0].GroupIndex)
		}
		checkBatchesEqual(t, "warm-start tie", alone, out[1:])
	}
}

// orderedTied returns groups as one problem scanned in bound order with
// MinW set to its smallest weight.
func orderedTied(groups []Group) FlatProblem {
	p := flatten(groups, nil)
	p.Geom.Order = p.Geom.BoundOrder()
	p.MinW = minWeight(p.Geom)
	return p
}

// TestBoundOrderTieLowestIndexWins pins the tie rule in the bound-ordered
// scan: exact groups of equal cost whose scan keys fall as their indices
// rise, so the scan meets them in reverse index order. Group 0 must still
// win, sequentially and in the parallel pool.
func TestBoundOrderTieLowestIndexWins(t *testing.T) {
	groups := []Group{
		{wp(0, 0, 1), wp(16, 0, 1)},                     // key 16
		{wp(0, 0, 2), wp(4, 0, 2), wp(-4, 0, 2)},        // key 8
		{wp(0, 0, 4), wp(0, 4, 4)},                      // key 4
		{wp(0, 0, 8), wp(2, 0, 8)},                      // key 2
		{wp(0, 0, 16), wp(0.5, 0, 16), wp(-0.5, 0, 16)}, // key 1
	}
	for gi, g := range groups {
		if res, err := Solve(g, Options{}); err != nil || res.Cost != 16 {
			t.Fatalf("group %d costs %v (%v), want exactly 16", gi, res.Cost, err)
		}
	}
	p := orderedTied(groups)
	for rank, gi := range p.Geom.Order {
		if int(gi) != len(groups)-1-rank {
			t.Fatalf("bound order %v, want the reverse of index order", p.Geom.Order)
		}
	}
	for _, workers := range []int{1, 4} {
		for run := 0; run < 50; run++ {
			out, err := CostBoundMultiBatchFlatCtx(context.Background(), []FlatProblem{p}, Options{}, workers)
			if err != nil {
				t.Fatal(err)
			}
			if out[0].GroupIndex != 0 || out[0].Cost != 16 {
				t.Fatalf("workers=%d run %d: winner group %d cost %v, want group 0 cost 16", workers, run, out[0].GroupIndex, out[0].Cost)
			}
		}
	}
}

// TestWeiszfeldTieReachesMerge pins the Weiszfeld abort at a tie. Group 0
// is a plus of four unit-weight points around the origin: Weiszfeld's first
// iterate is the origin, where the Eq-10 lower bound equals the cost, 4.
// Group 1 is a collinear group the exact path also prices at 4, with the
// smaller scan key, so the bound-ordered scan meets it first. An abort
// that fired when the lower bound merely reached the incumbent would drop
// group 0 there and hand the tie to group 1; the abort fires only when the
// bound strictly exceeds the incumbent, so group 0 wins in every order.
func TestWeiszfeldTieReachesMerge(t *testing.T) {
	groups := []Group{
		{wp(1, 0, 1), wp(-1, 0, 1), wp(0, 1, 1), wp(0, -1, 1)},
		{wp(0, 0, 1), wp(0.5, 0, 4), wp(-0.5, 0, 4)},
	}
	for gi, g := range groups {
		if res, err := Solve(g, Options{}); err != nil || res.Cost != 4 {
			t.Fatalf("group %d costs %v (%v), want exactly 4", gi, res.Cost, err)
		}
	}
	if isCollinear(groups[0]) {
		t.Fatal("group 0 must take the iterative path")
	}
	for _, p := range []FlatProblem{flatten(groups, nil), orderedTied(groups)} {
		for _, workers := range []int{1, 4} {
			out, err := CostBoundMultiBatchFlatCtx(context.Background(), []FlatProblem{p}, Options{}, workers)
			if err != nil {
				t.Fatal(err)
			}
			if out[0].GroupIndex != 0 {
				t.Fatalf("ordered=%t workers=%d: winner group %d, want 0", p.Geom.Order != nil, workers, out[0].GroupIndex)
			}
		}
	}
	if p := orderedTied(groups); p.Geom.Order[0] != 1 {
		t.Fatalf("bound order starts at group %d, want 1", p.Geom.Order[0])
	}
}
