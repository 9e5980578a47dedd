package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"molq/internal/core"
	"molq/internal/fermat"
	"molq/internal/geom"
)

// foldedProblem is tw's problem over the snapshot's geometry in the form for
// points that carry their own weights: every combination object folded
// whole through in.fold, Typ all 0 and Scale = {1}. Its MinW is the
// smallest folded weight of any object in the sets, which equals the
// engine's per-type bound because rounding is monotone.
func foldedProblem(in *Input, st *engineState, tw []float64) fermat.FlatProblem {
	g := st.flat.groups
	n := len(g.X)
	g.Typ, g.Base = make([]int32, n), make([]float64, n)
	if g.OffBase != nil {
		g.OffBase = make([]float64, n)
	}
	k := 0
	for _, c := range st.combos {
		for _, o := range c {
			o.TypeWeight = tw[o.Type]
			var off float64
			g.Base[k], off = in.fold(o)
			if g.OffBase != nil {
				g.OffBase[k] = off
			}
			k++
		}
	}
	minW := math.Inf(1)
	for _, set := range st.sets {
		for _, o := range set {
			o.TypeWeight = tw[o.Type]
			w, _ := in.fold(o)
			minW = min(minW, w)
		}
	}
	return fermat.FlatProblem{Geom: &g, Scale: []float64{1}, MinW: minW}
}

// TestEngineFoldMatchesPerPointFold checks that folding weights on read
// changes no bit of an engine's answers: Engine.Query and QueryBatch, and
// the engine's own per-type problem run through the batch driver, must
// match the same snapshot's geometry with every weight folded per point
// through Input.fold — location, cost and winning group, and at one worker
// the work counters too. It covers RRB and MBRB, multiplicative, additive
// and mixed object weights with non-uniform ObjWeights, one and four
// workers, with and without a read replica, before and after an insert of
// lighter objects.
func TestEngineFoldMatchesPerPointFold(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(101))
	for _, method := range []Method{RRB, MBRB} {
		for _, kind := range []string{"mult", "add", "mixed"} {
			for _, workers := range []int{1, 4} {
				for _, replicas := range []int{0, 1} {
					in := orderTestInput(r, 3, 12, kind)
					in.Workers, in.Replicas = workers, replicas
					eng, err := NewEngine(in, method)
					if err != nil {
						t.Fatal(err)
					}
					vecs := batchVecs(r, 6, 3)
					name := fmt.Sprintf("%v/%s/workers=%d/replicas=%d", method, kind, workers, replicas)
					checkFoldEquivalence(t, ctx, eng, vecs, name)
					for ti := range in.Sets {
						if _, err := eng.InsertObject(core.Object{
							ID: 100, Type: ti, Loc: geom.Pt(r.Float64()*1000, r.Float64()*1000),
							TypeWeight: 1, ObjWeight: 0.1 + 0.3*r.Float64(),
						}); err != nil {
							t.Fatal(err)
						}
					}
					checkFoldEquivalence(t, ctx, eng, vecs, name+"/inserted")
				}
			}
		}
	}
}

// checkFoldEquivalence runs TestEngineFoldMatchesPerPointFold's checks on
// eng's current snapshot.
func checkFoldEquivalence(t *testing.T, ctx context.Context, eng *Engine, vecs [][]float64, name string) {
	t.Helper()
	st := eng.state.Load()
	opt, workers := eng.in.options(), eng.in.Workers
	refs := make([]fermat.FlatProblem, len(vecs))
	for vi, tw := range vecs {
		refs[vi] = foldedProblem(&eng.in, st, tw)
		want, err := fermat.CostBoundMultiBatchFlatCtx(ctx, refs[vi:vi+1], opt, workers)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := fermat.CostBoundMultiBatchFlatCtx(ctx, []fermat.FlatProblem{st.flat.problemFor(tw)}, opt, workers)
		if err != nil {
			t.Fatal(err)
		}
		if engine[0].Loc != want[0].Loc || engine[0].Cost != want[0].Cost || engine[0].GroupIndex != want[0].GroupIndex {
			t.Fatalf("%s vec %d: per-type problem (%v, %v, group %d), per-point fold (%v, %v, group %d)", name, vi,
				engine[0].Loc, engine[0].Cost, engine[0].GroupIndex, want[0].Loc, want[0].Cost, want[0].GroupIndex)
		}
		got, err := eng.QueryContext(ctx, tw)
		if err != nil {
			t.Fatal(err)
		}
		if got.Loc != want[0].Loc || got.Cost != want[0].Cost {
			t.Fatalf("%s vec %d: Query (%v, %v), per-point fold (%v, %v)", name, vi, got.Loc, got.Cost, want[0].Loc, want[0].Cost)
		}
		if workers == 1 && (got.Stats.Fermat != want[0].Stats || engine[0].Stats != want[0].Stats) {
			t.Fatalf("%s vec %d: stats Query %+v, per-type %+v, per-point fold %+v", name, vi, got.Stats.Fermat, engine[0].Stats, want[0].Stats)
		}
	}
	want, err := fermat.CostBoundMultiBatchFlatCtx(ctx, refs, opt, workers)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.QueryBatchContext(ctx, vecs)
	if err != nil {
		t.Fatal(err)
	}
	for vi := range vecs {
		if got[vi].Loc != want[vi].Loc || got[vi].Cost != want[vi].Cost {
			t.Fatalf("%s batch vec %d: (%v, %v), per-point fold (%v, %v)", name, vi, got[vi].Loc, got[vi].Cost, want[vi].Loc, want[vi].Cost)
		}
		if workers == 1 && got[vi].Stats.Fermat != want[vi].Stats {
			t.Fatalf("%s batch vec %d: stats %+v, per-point fold %+v", name, vi, got[vi].Stats.Fermat, want[vi].Stats)
		}
	}
}
