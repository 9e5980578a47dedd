package fermat

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestParallelMatchesSequential(t *testing.T) {
	groups := randomGroups(77, 200, 5)
	opt := Options{Epsilon: 1e-5}
	seq, err := solveFlat(groups, nil, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := solveFlat(groups, nil, opt, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Cost != seq.Cost || par.Loc != seq.Loc {
			t.Fatalf("workers=%d: (%v, %v) vs sequential (%v, %v)", workers, par.Loc, par.Cost, seq.Loc, seq.Cost)
		}
		if par.GroupIndex != seq.GroupIndex {
			t.Fatalf("workers=%d: winner %d vs %d", workers, par.GroupIndex, seq.GroupIndex)
		}
		if par.Stats.Problems != len(groups) {
			t.Fatalf("workers=%d: examined %d of %d", workers, par.Stats.Problems, len(groups))
		}
	}
}

func TestParallelWithOffsets(t *testing.T) {
	groups := randomGroups(88, 150, 5)
	r := rand.New(rand.NewSource(89))
	offsets := make([]float64, len(groups))
	for i := range offsets {
		offsets[i] = r.Float64() * 300
	}
	opt := Options{Epsilon: 1e-5}
	seq, err := solveFlat(groups, offsets, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := solveFlat(groups, offsets, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.Cost != seq.Cost || par.GroupIndex != seq.GroupIndex {
		t.Fatalf("parallel %+v vs sequential %+v", par, seq)
	}
}

func TestParallelEdgeCases(t *testing.T) {
	if _, err := solveFlat(nil, nil, Options{}, 4); err != ErrNoPoints {
		t.Fatalf("want ErrNoPoints, got %v", err)
	}
	groups := randomGroups(9, 3, 5)
	if _, err := CostBoundMultiBatchFlatCtx(context.Background(), shortOffBase(groups), Options{}, 4); err != ErrBadOffsets {
		t.Fatalf("want ErrBadOffsets, got %v", err)
	}
	// workers > groups and workers <= 0 both still work.
	a, err := solveFlat(groups, nil, Options{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := solveFlat(groups, nil, Options{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.GroupIndex != b.GroupIndex {
		t.Fatalf("worker-count variants disagree: %+v vs %+v", a, b)
	}
}

func TestAtomicMin(t *testing.T) {
	m := newAtomicMin()
	if !math.IsInf(m.load(), 1) {
		t.Fatal("fresh bound should be +Inf")
	}
	if !m.update(5) {
		t.Fatal("lowering from Inf should succeed")
	}
	if m.update(7) {
		t.Fatal("raising should be refused")
	}
	if !m.update(3) || m.load() != 3 {
		t.Fatalf("bound = %v, want 3", m.load())
	}
}
