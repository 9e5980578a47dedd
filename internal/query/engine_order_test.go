package query

import (
	"fmt"
	"math/rand"
	"testing"

	"molq/internal/core"
	"molq/internal/geom"
)

// orderTestInput builds ntypes sets of n objects with non-uniform object
// weights. kind picks the ς^o family: "mult", "add", or "mixed" (types
// alternate, multiplicative first).
func orderTestInput(r *rand.Rand, ntypes, n int, kind string) Input {
	in := Input{Sets: make([][]core.Object, ntypes), ObjKinds: make([]WeightKind, ntypes), Bounds: testBounds, DisableDiagramCache: true}
	for ti := range in.Sets {
		if kind == "add" || kind == "mixed" && ti%2 == 1 {
			in.ObjKinds[ti] = AdditiveObjWeights
		}
		for i := 0; i < n; i++ {
			in.Sets[ti] = append(in.Sets[ti], core.Object{
				ID: i, Type: ti, Loc: geom.Pt(r.Float64()*1000, r.Float64()*1000),
				TypeWeight: 1, ObjWeight: 0.5 + 1.5*r.Float64(),
			})
		}
	}
	return in
}

// unorderedTwin returns an engine over eng's current snapshot whose flat
// groups carry no scan order, so its queries scan in index order.
func unorderedTwin(eng *Engine) *Engine {
	st := *eng.state.Load()
	st.flat.groups.Order = nil
	twin := &Engine{in: eng.in, method: eng.method, mode: eng.mode}
	twin.state.Store(&st)
	return twin
}

// TestBoundOrderedQueryMatchesIndexOrder checks that Engine.Query and
// QueryBatch answer bit for bit as they do over the same snapshot scanned in
// index order, across RRB and MBRB, 3–5 types, multiplicative, additive and
// mixed object weights, at one and four workers. The ordered scans must
// count every group in Problems and, summed over the cases, solve fewer.
func TestBoundOrderedQueryMatchesIndexOrder(t *testing.T) {
	sizes := map[int]int{3: 12, 4: 8, 5: 6}
	r := rand.New(rand.NewSource(83))
	plainSolves, orderedSolves := 0, 0
	for _, method := range []Method{RRB, MBRB} {
		for _, ntypes := range []int{3, 4, 5} {
			for _, kind := range []string{"mult", "add", "mixed"} {
				name := fmt.Sprintf("%v/types=%d/%s", method, ntypes, kind)
				in := orderTestInput(r, ntypes, sizes[ntypes], kind)
				vecs := batchVecs(r, 6, ntypes)
				for _, workers := range []int{1, 4} {
					in.Workers = workers
					eng, err := NewEngine(in, method)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					twin := unorderedTwin(eng)
					for vi, tw := range vecs {
						got, err := eng.Query(tw)
						if err != nil {
							t.Fatal(err)
						}
						want, err := twin.Query(tw)
						if err != nil {
							t.Fatal(err)
						}
						if got.Loc != want.Loc || got.Cost != want.Cost {
							t.Fatalf("%s workers=%d vec %d: Query (%v, %v), index order (%v, %v)", name, workers, vi, got.Loc, got.Cost, want.Loc, want.Cost)
						}
						if got.Stats.Fermat.Problems != want.Stats.Fermat.Problems {
							t.Fatalf("%s workers=%d vec %d: Problems %d, index order %d", name, workers, vi, got.Stats.Fermat.Problems, want.Stats.Fermat.Problems)
						}
						if workers == 1 {
							plainSolves += want.Stats.Fermat.ExactSolves + want.Stats.Fermat.PrunedGroups
							orderedSolves += got.Stats.Fermat.ExactSolves + got.Stats.Fermat.PrunedGroups
						}
					}
					got, err := eng.QueryBatch(vecs)
					if err != nil {
						t.Fatal(err)
					}
					want, err := twin.QueryBatch(vecs)
					if err != nil {
						t.Fatal(err)
					}
					for vi := range vecs {
						if got[vi].Loc != want[vi].Loc || got[vi].Cost != want[vi].Cost {
							t.Fatalf("%s workers=%d batch vec %d: (%v, %v), index order (%v, %v)", name, workers, vi, got[vi].Loc, got[vi].Cost, want[vi].Loc, want[vi].Cost)
						}
					}
				}
			}
		}
	}
	t.Logf("solved groups: %d ordered, %d in index order", orderedSolves, plainSolves)
	if orderedSolves >= plainSolves {
		t.Fatalf("ordered queries solved %d groups, index-order queries %d: the stop skipped nothing", orderedSolves, plainSolves)
	}
}

// TestBoundOrderedQueryAfterLighterInsert checks that the scan's weight
// floor follows mutations: after objects lighter than every existing one
// are inserted, ordered queries still answer bit for bit as index-order
// ones over the same snapshot.
func TestBoundOrderedQueryAfterLighterInsert(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	for _, method := range []Method{RRB, MBRB} {
		in := orderTestInput(r, 3, 12, "mult")
		eng, err := NewEngine(in, method)
		if err != nil {
			t.Fatal(err)
		}
		for ti := range in.Sets {
			for k := 0; k < 3; k++ {
				if _, err := eng.InsertObject(core.Object{
					ID: 100 + k, Type: ti, Loc: geom.Pt(r.Float64()*1000, r.Float64()*1000),
					TypeWeight: 1, ObjWeight: 0.01 + 0.04*r.Float64(),
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		twin := unorderedTwin(eng)
		for vi, tw := range batchVecs(r, 8, 3) {
			got, err := eng.Query(tw)
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.Query(tw)
			if err != nil {
				t.Fatal(err)
			}
			if got.Loc != want.Loc || got.Cost != want.Cost {
				t.Fatalf("%v vec %d: Query (%v, %v), index order (%v, %v)", method, vi, got.Loc, got.Cost, want.Loc, want.Cost)
			}
		}
	}
}
