package fermat

import (
	"context"
	"math/rand"
	"testing"

	"molq/internal/geom"
)

// randomProblems builds n independent batches over shared point geometry
// with per-batch weights and offsets, like QueryBatch's per-weight-vector
// problems.
func randomProblems(r *rand.Rand, n, groups, pts int) []sliceProblem {
	base := make([][]geom.Point, groups)
	for gi := range base {
		ps := make([]geom.Point, pts)
		for i := range ps {
			ps[i] = geom.Pt(r.Float64()*100, r.Float64()*100)
		}
		base[gi] = ps
	}
	out := make([]sliceProblem, n)
	for pi := range out {
		gs := make([]Group, groups)
		offs := make([]float64, groups)
		for gi, ps := range base {
			g := make(Group, len(ps))
			for i, p := range ps {
				g[i] = WeightedPoint{P: p, W: 0.5 + r.Float64()*4}
			}
			gs[gi] = g
			offs[gi] = r.Float64() * 2
		}
		out[pi] = sliceProblem{gs, offs}
	}
	return out
}

// TestMultiBatchMatchesSequential checks the shared-pool multi-batch returns
// exactly the per-problem optima of independent sequential solves, at every
// worker count.
func TestMultiBatchMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	problems := randomProblems(r, 9, 12, 6)
	opt := Options{Epsilon: 1e-9}
	want := make([]BatchResult, len(problems))
	flat := make([]FlatProblem, len(problems))
	for pi, p := range problems {
		res, err := stream(p.groups, p.offsets, opt, true)
		if err != nil {
			t.Fatal(err)
		}
		want[pi] = res
		flat[pi] = flatten(p.groups, p.offsets)
	}
	for _, workers := range []int{0, 1, 2, 4, 16} {
		got, err := CostBoundMultiBatchFlatCtx(context.Background(), flat, opt, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkBatchesEqual(t, "multi", want, got)
	}
}

// TestMultiBatchValidation covers the error surface: empty input, an empty
// problem, and mismatched offsets.
func TestMultiBatchValidation(t *testing.T) {
	ctx := context.Background()
	if out, err := CostBoundMultiBatchFlatCtx(ctx, nil, Options{}, 4); err != nil || out != nil {
		t.Fatalf("empty input: got (%v, %v)", out, err)
	}
	if _, err := CostBoundMultiBatchFlatCtx(ctx, []FlatProblem{flatten(nil, nil)}, Options{}, 4); err != ErrNoPoints {
		t.Fatalf("empty problem: got %v, want ErrNoPoints", err)
	}
	g := Group{{P: geom.Pt(0, 0), W: 1}, {P: geom.Pt(1, 1), W: 1}}
	if _, err := CostBoundMultiBatchFlatCtx(ctx, shortOffBase([]Group{g}), Options{}, 4); err != ErrBadOffsets {
		t.Fatalf("bad offsets: got %v, want ErrBadOffsets", err)
	}
}
