package query

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"molq/internal/core"
	"molq/internal/dataset"
)

// batchVecs returns n deterministic positive weight vectors for an engine
// over `types` object sets.
func batchVecs(r *rand.Rand, n, types int) [][]float64 {
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, types)
		for ti := range v {
			v[ti] = 0.5 + 9.5*r.Float64()
		}
		vecs[i] = v
	}
	return vecs
}

// TestQueryBatchMatchesSequential checks QueryBatch returns exactly what a
// sequence of Query calls would, per vector, at several worker counts.
func TestQueryBatchMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	in := randomInput(r, []int{12, 10, 8}, false)
	vecs := batchVecs(r, 16, len(in.Sets))
	for _, workers := range []int{1, 4} {
		in := in
		in.Workers = workers
		eng, err := NewEngine(in, RRB)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Result, len(vecs))
		for vi, tw := range vecs {
			res, err := eng.Query(tw)
			if err != nil {
				t.Fatal(err)
			}
			want[vi] = res
		}
		got, err := eng.QueryBatch(vecs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(vecs) {
			t.Fatalf("workers=%d: %d results for %d vectors", workers, len(got), len(vecs))
		}
		for vi := range got {
			if math.Abs(got[vi].Cost-want[vi].Cost) > 1e-9*(1+want[vi].Cost) {
				t.Fatalf("workers=%d vector %d: cost %v, want %v", workers, vi, got[vi].Cost, want[vi].Cost)
			}
			if got[vi].Loc.Dist(want[vi].Loc) > 1e-6 {
				t.Fatalf("workers=%d vector %d: loc %v, want %v", workers, vi, got[vi].Loc, want[vi].Loc)
			}
			if got[vi].Stats.Groups != want[vi].Stats.Groups {
				t.Fatalf("workers=%d vector %d: groups %d, want %d", workers, vi, got[vi].Stats.Groups, want[vi].Stats.Groups)
			}
		}
	}
}

// TestQueryBatchAdditive covers the additive ς^o family: offsets must fold
// per vector, not bleed across vectors.
func TestQueryBatchAdditive(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	in := randomInput(r, []int{9, 7}, false)
	in.ObjKinds = []WeightKind{AdditiveObjWeights, MultiplicativeObjWeights}
	for ti := range in.Sets {
		for i := range in.Sets[ti] {
			in.Sets[ti][i].ObjWeight = 1 + r.Float64()
		}
	}
	eng, err := NewEngine(in, MBRB)
	if err != nil {
		t.Fatal(err)
	}
	vecs := batchVecs(r, 7, len(in.Sets))
	got, err := eng.QueryBatch(vecs)
	if err != nil {
		t.Fatal(err)
	}
	for vi, tw := range vecs {
		want, err := eng.Query(tw)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got[vi].Cost-want.Cost) > 1e-9*(1+want.Cost) {
			t.Fatalf("vector %d: cost %v, want %v", vi, got[vi].Cost, want.Cost)
		}
	}
}

// TestQueryBatchValidation checks empty input and bad vectors.
func TestQueryBatchValidation(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	eng, err := NewEngine(randomInput(r, []int{5, 5}, false), RRB)
	if err != nil {
		t.Fatal(err)
	}
	// An empty batch answers with an empty, non-nil slice: JSON encoders
	// downstream must see [], not null.
	if out, err := eng.QueryBatch(nil); err != nil || out == nil || len(out) != 0 {
		t.Fatalf("empty batch: got (%v, %v), want ([], nil)", out, err)
	}
	if _, err := eng.QueryBatch([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("short vector accepted")
	}
	if _, err := eng.QueryBatch([][]float64{{1, 2}, {1, -3}}); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("negative weight: err=%v, want ErrBadWeight", err)
	}
	// Finite weights whose cost leaves the float64 range: +Inf has no JSON
	// encoding, so both paths refuse them.
	huge := []float64{math.MaxFloat64, math.MaxFloat64}
	if _, err := eng.QueryBatch([][]float64{{1, 2}, huge}); !errors.Is(err, ErrCostOverflow) {
		t.Fatalf("overflowing batch: err=%v, want ErrCostOverflow", err)
	}
	if _, err := eng.Query(huge); !errors.Is(err, ErrCostOverflow) {
		t.Fatalf("overflowing query: err=%v, want ErrCostOverflow", err)
	}
}

// TestEngineConcurrentQueries is the shared-mutable-state audit as a test:
// one engine hammered by Query and QueryBatch from many goroutines (run
// under -race in CI) must produce exactly the single-threaded answers —
// every call owns its problem slab, and the prepared state is read-only.
func TestEngineConcurrentQueries(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	in := randomInput(r, []int{10, 9, 8}, false)
	in.Workers = runtime.GOMAXPROCS(0)
	eng, err := NewEngine(in, RRB)
	if err != nil {
		t.Fatal(err)
	}
	vecs := batchVecs(r, 8, len(in.Sets))
	want := make([]Result, len(vecs))
	for vi, tw := range vecs {
		res, err := eng.Query(tw)
		if err != nil {
			t.Fatal(err)
		}
		want[vi] = res
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				vi := (g + k) % len(vecs)
				if (g+k)%2 == 0 {
					res, err := eng.Query(vecs[vi])
					if err != nil {
						t.Errorf("query: %v", err)
						return
					}
					if math.Abs(res.Cost-want[vi].Cost) > 1e-9*(1+want[vi].Cost) {
						t.Errorf("concurrent query %d: cost %v, want %v", vi, res.Cost, want[vi].Cost)
						return
					}
				} else {
					out, err := eng.QueryBatch(vecs)
					if err != nil {
						t.Errorf("query batch: %v", err)
						return
					}
					for i := range out {
						if math.Abs(out[i].Cost-want[i].Cost) > 1e-9*(1+want[i].Cost) {
							t.Errorf("concurrent batch vector %d: cost %v, want %v", i, out[i].Cost, want[i].Cost)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkEngineQueryBatch compares 16 sequential Query calls against one
// QueryBatch over the same 16 weight vectors — the amortization the serving
// path relies on (acceptance: batch16 beats seq16 on wall clock). The
// batch16/paper3x1000 row answers 16 vectors in one QueryBatch on the
// serving benchmark's engine shape (see BenchmarkEngineQuery), where a
// per-vector O(points) setup would cost 16 × ~31k points.
func BenchmarkEngineQueryBatch(b *testing.B) {
	r := rand.New(rand.NewSource(61))
	in := randomInput(r, []int{40, 35, 30}, false)
	in.Workers = runtime.GOMAXPROCS(0)
	eng, err := NewEngine(in, RRB)
	if err != nil {
		b.Fatal(err)
	}
	vecs := batchVecs(r, 16, len(in.Sets))

	b.Run("seq16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, tw := range vecs {
				if _, err := eng.Query(tw); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.QueryBatch(vecs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch16/paper3x1000", func(b *testing.B) {
		eng := paperEngine(b)
		vecs := batchVecs(rand.New(rand.NewSource(73)), 16, 3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.QueryBatch(vecs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// paperEngine prepares the serving benchmark's engine shape: three
// clustered paper types (STM, CH, SCH) of 1,000 objects each, about 10.5k
// three-point combinations, with one read replica per core as the HTTP
// engine create configures.
func paperEngine(b *testing.B) *Engine {
	b.Helper()
	names := []string{dataset.STM, dataset.CH, dataset.SCH}
	in := Input{Sets: make([][]core.Object, len(names)), Bounds: dataset.DefaultBounds, DisableDiagramCache: true}
	for ti, name := range names {
		for i, p := range dataset.Generate(dataset.Config{Seed: 1}, name, 1000) {
			in.Sets[ti] = append(in.Sets[ti], core.Object{ID: i, Type: ti, Loc: p, TypeWeight: 1, ObjWeight: 1})
		}
	}
	in.Replicas = runtime.GOMAXPROCS(0)
	eng, err := NewEngine(in, RRB)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkEngineQuery times one single-vector Query on paperEngine's
// shape. optimize-ns/op is the optimizer's share as the query reports it.
func BenchmarkEngineQuery(b *testing.B) {
	b.Run("paper3x1000", func(b *testing.B) {
		eng := paperEngine(b)
		vecs := batchVecs(rand.New(rand.NewSource(71)), 256, 3)
		var optimize time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.Query(vecs[i%len(vecs)])
			if err != nil {
				b.Fatal(err)
			}
			optimize += res.Stats.OptimizeTime
		}
		b.ReportMetric(float64(optimize.Nanoseconds())/float64(b.N), "optimize-ns/op")
	})
}
