package query

import (
	"math/rand"
	"testing"

	"molq/internal/core"
	"molq/internal/geom"
)

// TestSingleTypeSolveWorkerInvariant pins the optimizer's tie rule end to
// end: a single-type query has one zero-cost combination per object, all
// tied, so only the lowest-index rule makes the parallel answer equal the
// sequential one on every run.
func TestSingleTypeSolveWorkerInvariant(t *testing.T) {
	in := randomInput(rand.New(rand.NewSource(61)), []int{256}, false)
	in.DisableDiagramCache = true
	in.Workers = 1
	want, err := Solve(in, RRB)
	if err != nil {
		t.Fatal(err)
	}
	in.Workers = 4
	for run := 0; run < 100; run++ {
		got, err := Solve(in, RRB)
		if err != nil {
			t.Fatal(err)
		}
		if got.Loc != want.Loc || got.Cost != want.Cost {
			t.Fatalf("run %d: Workers=4 answer (%v, %v), Workers=1 (%v, %v)", run, got.Loc, got.Cost, want.Loc, want.Cost)
		}
	}
}

// tiedAdditiveInput builds two additive types with coincident object pairs
// at P and Q: combination (a1, b1) at P costs w0·1 + w1·3 and (a2, b2) at Q
// costs w0·2 + w1·2, so they tie exactly at equal type weights while
// (w0, w1) = (1, 2) favours Q and (2, 1) favours P. Every mixed combination
// pays the long P–Q distance.
func tiedAdditiveInput() Input {
	p, q := geom.Pt(100, 100), geom.Pt(800, 800)
	return Input{
		Sets: [][]core.Object{
			{
				{ID: 0, Type: 0, Loc: p, TypeWeight: 1, ObjWeight: 1},
				{ID: 1, Type: 0, Loc: q, TypeWeight: 1, ObjWeight: 2},
			},
			{
				{ID: 0, Type: 1, Loc: p, TypeWeight: 1, ObjWeight: 3},
				{ID: 1, Type: 1, Loc: q, TypeWeight: 1, ObjWeight: 2},
			},
		},
		Bounds:              testBounds,
		ObjKinds:            []WeightKind{AdditiveObjWeights, AdditiveObjWeights},
		DisableDiagramCache: true,
	}
}

// TestQueryBatchMatchesQueryBitForBit checks every QueryBatch answer equals
// the vector's own Query answer bit for bit, at one and at several workers.
// The tied instance makes the batch's warm start evaluate one tied
// combination before the other, whichever has the lower index.
func TestQueryBatchMatchesQueryBitForBit(t *testing.T) {
	tied := tiedAdditiveInput()
	random := randomInput(rand.New(rand.NewSource(62)), []int{10, 8, 6}, false)
	random.DisableDiagramCache = true
	cases := []struct {
		name string
		in   Input
		vecs [][]float64
	}{
		{"tied", tied, [][]float64{{1, 2}, {1, 1}, {2, 1}, {1, 1}, {3, 3}}},
		{"random", random, batchVecs(rand.New(rand.NewSource(63)), 12, 3)},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			in := tc.in
			in.Workers = workers
			eng, err := NewEngine(in, MBRB)
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 20; run++ {
				got, err := eng.QueryBatch(tc.vecs)
				if err != nil {
					t.Fatal(err)
				}
				for vi, tw := range tc.vecs {
					want, err := eng.Query(tw)
					if err != nil {
						t.Fatal(err)
					}
					if got[vi].Loc != want.Loc || got[vi].Cost != want.Cost {
						t.Fatalf("%s workers=%d run %d vector %d: batch (%v, %v), query (%v, %v)",
							tc.name, workers, run, vi, got[vi].Loc, got[vi].Cost, want.Loc, want.Cost)
					}
				}
			}
		}
	}
}

// TestSpilledSolveWorkerInvariant checks a spilled solve answers the exact
// tie of tiedAdditiveInput bit for bit alike at one and two workers: the
// spilled final ⊕ streams sequentially at any worker count, so the spill
// file, and with it the optimizer's tie rule, sees one OVR order.
func TestSpilledSolveWorkerInvariant(t *testing.T) {
	in := tiedAdditiveInput()
	in.SpillDir = t.TempDir()
	in.Workers = 1
	want, err := Solve(in, RRB)
	if err != nil {
		t.Fatal(err)
	}
	in.Workers = 2
	for run := 0; run < 50; run++ {
		got, err := Solve(in, RRB)
		if err != nil {
			t.Fatal(err)
		}
		if got.Loc != want.Loc || got.Cost != want.Cost {
			t.Fatalf("run %d: Workers=2 answer (%v, %v), Workers=1 (%v, %v)", run, got.Loc, got.Cost, want.Loc, want.Cost)
		}
	}
}
