package fermat

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func randomGroups(seed int64, n, pts int) []Group {
	r := rand.New(rand.NewSource(seed))
	groups := make([]Group, n)
	for gi := range groups {
		g := make(Group, pts)
		for i := range g {
			g[i] = wp(r.Float64()*1000, r.Float64()*1000, 0.5+9*r.Float64())
		}
		groups[gi] = g
	}
	return groups
}

func TestOffsetsChangeWinner(t *testing.T) {
	// Two identical single-point groups; the offset decides the winner.
	groups := []Group{
		{wp(0, 0, 1)},
		{wp(10, 10, 1)},
	}
	res, err := solveFlat(groups, []float64{5, 1}, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.GroupIndex != 1 || math.Abs(res.Cost-1) > 1e-12 {
		t.Fatalf("offset should pick group 1 at cost 1, got %+v", res)
	}
}

func TestOffsetsBatchAgreement(t *testing.T) {
	groups := randomGroups(55, 60, 5)
	r := rand.New(rand.NewSource(56))
	offsets := make([]float64, len(groups))
	for i := range offsets {
		offsets[i] = r.Float64() * 500
	}
	opt := Options{Epsilon: 1e-5}
	cb, err := solveFlat(groups, offsets, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := stream(groups, offsets, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(cb.Cost-seq.Cost) / seq.Cost; rel > 1e-3 {
		t.Fatalf("CB %v vs Original %v", cb.Cost, seq.Cost)
	}
	if cb.Stats.TotalIters >= seq.Stats.TotalIters {
		t.Fatalf("offset pruning ineffective: %d vs %d iters", cb.Stats.TotalIters, seq.Stats.TotalIters)
	}
	// The returned cost includes the offset.
	bare := Cost(cb.Loc, groups[cb.GroupIndex])
	if math.Abs(bare+offsets[cb.GroupIndex]-cb.Cost) > 1e-9*cb.Cost {
		t.Fatalf("cost %v != bare %v + offset %v", cb.Cost, bare, offsets[cb.GroupIndex])
	}
}

func TestOffsetsValidation(t *testing.T) {
	groups := randomGroups(1, 3, 4)
	if _, err := CostBoundMultiBatchFlatCtx(context.Background(), shortOffBase(groups), Options{}, 1); err != ErrBadOffsets {
		t.Fatalf("want ErrBadOffsets, got %v", err)
	}
	// nil offsets behave like zeros.
	a, err := solveFlat(groups, nil, Options{Epsilon: 1e-6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := solveFlat(groups, make([]float64, len(groups)), Options{Epsilon: 1e-6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.GroupIndex != b.GroupIndex {
		t.Fatalf("nil offsets diverge: %+v vs %+v", a, b)
	}
}
