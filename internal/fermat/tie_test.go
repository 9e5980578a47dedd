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
