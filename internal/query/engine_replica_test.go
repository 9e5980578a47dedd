package query

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"molq/internal/core"
	"molq/internal/geom"
)

// TestQueryBatchPerItemTiming pins the batch timing contract: every item
// carries the batch wall clock in BatchElapsed, and the per-item phase times
// are amortized shares — summing them over the batch must not exceed the
// batch's wall clock. (The pre-fix code stamped the whole-batch elapsed into
// every item's TotalTime, so a 16-vector batch "cost" 16× its wall clock to
// anything aggregating per-item times.)
func TestQueryBatchPerItemTiming(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	eng, err := NewEngine(randomInput(r, []int{12, 10}, false), RRB)
	if err != nil {
		t.Fatal(err)
	}
	vecs := batchVecs(r, 16, 2)
	out, err := eng.QueryBatch(vecs)
	if err != nil {
		t.Fatal(err)
	}
	batch := out[0].Stats.BatchElapsed
	if batch <= 0 {
		t.Fatalf("BatchElapsed = %v, want > 0", batch)
	}
	var sum time.Duration
	for vi := range out {
		st := &out[vi].Stats
		if st.BatchElapsed != batch {
			t.Fatalf("vector %d: BatchElapsed %v != %v", vi, st.BatchElapsed, batch)
		}
		if st.TotalTime != st.OptimizeTime {
			t.Fatalf("vector %d: TotalTime %v != OptimizeTime %v", vi, st.TotalTime, st.OptimizeTime)
		}
		sum += st.TotalTime
	}
	if sum > batch {
		t.Fatalf("per-item times sum to %v, exceeding the batch wall clock %v", sum, batch)
	}
	// The share must be a real attribution, not zeroed-out.
	if sum < batch/2 {
		t.Fatalf("per-item times sum to %v, far below the batch wall clock %v", sum, batch)
	}
}

// TestEngineReplicasMatchShared checks a replicated engine answers exactly
// like an unreplicated one, across sequential queries, batches, and weight
// families.
func TestEngineReplicasMatchShared(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, additive := range []bool{false, true} {
		in := randomInput(r, []int{10, 9, 8}, true)
		if additive {
			in.ObjKinds = []WeightKind{AdditiveObjWeights, MultiplicativeObjWeights, AdditiveObjWeights}
		}
		plain, err := NewEngine(in, MBRB)
		if err != nil {
			t.Fatal(err)
		}
		in2 := in
		in2.Replicas = 3
		repl, err := NewEngine(in2, MBRB)
		if err != nil {
			t.Fatal(err)
		}
		if len(repl.replicas) != 3 {
			t.Fatalf("replicas not initialised: %d", len(repl.replicas))
		}
		vecs := batchVecs(r, 8, 3)
		for vi, tw := range vecs {
			want, err := plain.Query(tw)
			if err != nil {
				t.Fatal(err)
			}
			got, err := repl.Query(tw)
			if err != nil {
				t.Fatal(err)
			}
			if got.Loc != want.Loc || got.Cost != want.Cost {
				t.Fatalf("additive=%v vector %d: replica (%v, %v) != shared (%v, %v)",
					additive, vi, got.Loc, got.Cost, want.Loc, want.Cost)
			}
		}
		wantB, err := plain.QueryBatch(vecs)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := repl.QueryBatch(vecs)
		if err != nil {
			t.Fatal(err)
		}
		for vi := range wantB {
			if gotB[vi].Loc != wantB[vi].Loc || gotB[vi].Cost != wantB[vi].Cost {
				t.Fatalf("additive=%v batch vector %d: replica (%v, %v) != shared (%v, %v)",
					additive, vi, gotB[vi].Loc, gotB[vi].Cost, wantB[vi].Loc, wantB[vi].Cost)
			}
		}
	}
}

// TestEngineReplicasRefreshOnMutation checks a replica claimed under an old
// snapshot version re-copies the flat arrays after a mutation, so stale
// replicas can never answer for a newer engine state.
func TestEngineReplicasRefreshOnMutation(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	in := randomInput(r, []int{8, 8}, false)
	in.Replicas = 2
	eng, err := NewEngine(in, MBRB)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewEngine(randomInput(rand.New(rand.NewSource(13)), []int{8, 8}, false), MBRB)
	if err != nil {
		t.Fatal(err)
	}
	tw := []float64{2, 3}
	// Warm every replica slot on version 1.
	for i := 0; i < len(eng.replicas)+1; i++ {
		if _, err := eng.Query(tw); err != nil {
			t.Fatal(err)
		}
	}
	obj := core.Object{Type: 0, ID: 1000, Loc: geom.Pt(211, 347), ObjWeight: 1}
	if _, err := eng.InsertObject(obj); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.InsertObject(obj); err != nil {
		t.Fatal(err)
	}
	want, err := plain.Query(tw)
	if err != nil {
		t.Fatal(err)
	}
	// Query enough times to hit every (stale) replica slot.
	for i := 0; i < len(eng.replicas)+1; i++ {
		got, err := eng.Query(tw)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Cost-want.Cost) > 1e-9*(1+want.Cost) || got.Loc.Dist(want.Loc) > 1e-9 {
			t.Fatalf("query %d after mutation: (%v, %v), want (%v, %v)", i, got.Loc, got.Cost, want.Loc, want.Cost)
		}
	}
}

// TestEngineReplicasConcurrent hammers a replicated engine from many
// goroutines (meaningful under -race): replica claiming and lazy refresh
// must never corrupt results.
func TestEngineReplicasConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	in := randomInput(r, []int{10, 10}, false)
	in.Replicas = 4
	eng, err := NewEngine(in, RRB)
	if err != nil {
		t.Fatal(err)
	}
	vecs := batchVecs(r, 6, 2)
	want := make([]Result, len(vecs))
	for vi, tw := range vecs {
		want[vi], err = eng.Query(tw)
		if err != nil {
			t.Fatal(err)
		}
	}
	wantB, err := eng.QueryBatch(vecs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				vi := (g + it) % len(vecs)
				if it%5 == 4 {
					out, err := eng.QueryBatch(vecs)
					if err != nil {
						errs <- err
						return
					}
					for i := range out {
						if out[i].Loc != wantB[i].Loc || out[i].Cost != wantB[i].Cost {
							errs <- replicaMismatch(i, out[i], wantB[i])
							return
						}
					}
					continue
				}
				got, err := eng.Query(vecs[vi])
				if err != nil {
					errs <- err
					return
				}
				if got.Loc != want[vi].Loc || got.Cost != want[vi].Cost {
					errs <- replicaMismatch(vi, got, want[vi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func replicaMismatch(vi int, got, want Result) error {
	return &replicaMismatchError{vi: vi, got: got, want: want}
}

type replicaMismatchError struct {
	vi        int
	got, want Result
}

func (e *replicaMismatchError) Error() string {
	return "vector result mismatch under concurrency"
}
