package fermat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"molq/internal/geom"
)

func wp(x, y, w float64) WeightedPoint {
	return WeightedPoint{P: geom.Pt(x, y), W: w}
}

// bruteforce minimises the cost over a fine grid around the points, refining
// twice; good to ~1e-4 relative for test comparisons.
func bruteforce(pts []WeightedPoint) (geom.Point, float64) {
	r := geom.EmptyRect()
	for _, p := range pts {
		r = r.ExtendPoint(p.P)
	}
	if r.Width() == 0 && r.Height() == 0 {
		return pts[0].P, 0
	}
	best := r.Center()
	bestCost := Cost(best, pts)
	span := math.Max(r.Width(), r.Height())
	center := best
	for level := 0; level < 8; level++ {
		const grid = 32
		for i := 0; i <= grid; i++ {
			for j := 0; j <= grid; j++ {
				q := geom.Point{
					X: center.X - span/2 + span*float64(i)/grid,
					Y: center.Y - span/2 + span*float64(j)/grid,
				}
				if c := Cost(q, pts); c < bestCost {
					best, bestCost = q, c
				}
			}
		}
		center = best
		span /= 8
	}
	return best, bestCost
}

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(nil, Options{}); err != ErrNoPoints {
		t.Fatalf("want ErrNoPoints, got %v", err)
	}
}

func TestSinglePoint(t *testing.T) {
	res, err := Solve([]WeightedPoint{wp(3, 4, 2)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Loc.Eq(geom.Pt(3, 4)) || res.Cost != 0 || !res.Exact {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestTwoPointsHeavierWins(t *testing.T) {
	res, _ := Solve([]WeightedPoint{wp(0, 0, 1), wp(10, 0, 3)}, Options{})
	if !res.Loc.Eq(geom.Pt(10, 0)) {
		t.Fatalf("optimum should sit at the heavier point, got %v", res.Loc)
	}
	if math.Abs(res.Cost-10) > 1e-12 {
		t.Fatalf("cost = %v, want 10", res.Cost)
	}
}

func TestThreePointsEquilateralUnitWeights(t *testing.T) {
	// Equilateral triangle with unit weights: optimum is the centroid
	// (also the Torricelli point), each side seen under 120°.
	h := math.Sqrt(3) / 2
	pts := []WeightedPoint{wp(0, 0, 1), wp(1, 0, 1), wp(0.5, h, 1)}
	res, _ := Solve(pts, Options{})
	want := geom.Pt(0.5, h/3)
	if res.Loc.Dist(want) > 1e-9 {
		t.Fatalf("equilateral optimum = %v, want %v", res.Loc, want)
	}
	if !res.Exact {
		t.Fatal("three-point case should use the exact path")
	}
}

func TestThreePointsVertexDominance(t *testing.T) {
	// One overwhelming weight pins the optimum at that vertex.
	pts := []WeightedPoint{wp(0, 0, 100), wp(1, 0, 1), wp(0, 1, 1)}
	res, _ := Solve(pts, Options{})
	if !res.Loc.Eq(geom.Pt(0, 0)) {
		t.Fatalf("vertex dominance failed, got %v", res.Loc)
	}
}

func TestThreePointsObtuse(t *testing.T) {
	// With an angle ≥ 120° at a vertex (unit weights), that vertex is
	// optimal.
	pts := []WeightedPoint{wp(0, 0, 1), wp(10, 0.1, 1), wp(-10, 0.1, 1)}
	res, _ := Solve(pts, Options{})
	if !res.Loc.Eq(geom.Pt(0, 0)) {
		t.Fatalf("obtuse vertex should be optimal, got %v", res.Loc)
	}
}

func TestCollinearWeightedMedian(t *testing.T) {
	pts := []WeightedPoint{wp(0, 0, 1), wp(2, 0, 1), wp(4, 0, 1), wp(6, 0, 5)}
	res, _ := Solve(pts, Options{})
	if !res.Loc.Eq(geom.Pt(6, 0)) {
		t.Fatalf("weighted median should be (6,0), got %v", res.Loc)
	}
	if !res.Exact {
		t.Fatal("collinear case should be exact")
	}
}

func TestCollinearDiagonal(t *testing.T) {
	pts := []WeightedPoint{wp(0, 0, 1), wp(1, 1, 1), wp(2, 2, 1), wp(3, 3, 1), wp(4, 4, 1)}
	res, _ := Solve(pts, Options{})
	if res.Loc.Dist(geom.Pt(2, 2)) > 1e-9 {
		t.Fatalf("diagonal median should be (2,2), got %v", res.Loc)
	}
}

func TestWeiszfeldMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 4 + r.Intn(6)
		pts := make([]WeightedPoint, n)
		for i := range pts {
			pts[i] = wp(r.Float64()*100, r.Float64()*100, 0.5+10*r.Float64())
		}
		res, err := Solve(pts, Options{Epsilon: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		_, bfCost := bruteforce(pts)
		if res.Cost > bfCost*(1+1e-3) {
			t.Fatalf("trial %d: weiszfeld cost %v far above brute force %v", trial, res.Cost, bfCost)
		}
	}
}

func TestLowerBoundNeverExceedsOptimum(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(5))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(5)
		pts := make([]WeightedPoint, n)
		for i := range pts {
			pts[i] = wp(r.Float64()*50, r.Float64()*50, 0.1+5*r.Float64())
		}
		res, err := Solve(pts, Options{Epsilon: 1e-9})
		if err != nil {
			return false
		}
		// Lower bound evaluated at several arbitrary locations must not
		// exceed the (near-)optimal cost.
		for k := 0; k < 5; k++ {
			l := geom.Pt(r.Float64()*50, r.Float64()*50)
			if LowerBound(l, pts) > res.Cost*(1+1e-6)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWeiszfeldCostDecreases(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	pts := make([]WeightedPoint, 8)
	for i := range pts {
		pts[i] = wp(r.Float64()*10, r.Float64()*10, 1+r.Float64())
	}
	q := centroid(pts)
	sc := spread(pts)
	prev := Cost(q, pts)
	for i := 0; i < 50; i++ {
		q = weiszfeldStep(pts, q, sc)
		c := Cost(q, pts)
		if c > prev+1e-9 {
			t.Fatalf("iteration %d increased cost: %v -> %v", i, prev, c)
		}
		prev = c
	}
}

func TestSolveBoundedPrunes(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	pts := make([]WeightedPoint, 6)
	for i := range pts {
		pts[i] = wp(100+r.Float64()*10, 100+r.Float64()*10, 1)
	}
	// Any location costs at least ~0; set an absurdly low bound so the
	// very first lower bound exceeds it.
	res, err := SolveBounded(pts, Options{}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pruned {
		t.Fatalf("expected pruning, got %+v", res)
	}
	if res.Iters > 2 {
		t.Fatalf("pruning should trigger almost immediately, took %d iters", res.Iters)
	}
}

func TestSingularStartOnDemandPoint(t *testing.T) {
	// Centroid coincides with a demand point by construction.
	pts := []WeightedPoint{
		wp(0, 0, 1), wp(4, 0, 1), wp(0, 4, 1), wp(-4, 0, 1), wp(0, -4, 1), wp(0, 0, 1),
	}
	res, err := Solve(pts, Options{Epsilon: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Loc.Dist(geom.Pt(0, 0)) > 1e-6 {
		t.Fatalf("optimum should be the center, got %v", res.Loc)
	}
}

func TestAccelerationConvergesFaster(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	plainIters, accIters := 0, 0
	for trial := 0; trial < 40; trial++ {
		n := 5 + r.Intn(6)
		pts := make([]WeightedPoint, n)
		for i := range pts {
			pts[i] = wp(r.Float64()*1000, r.Float64()*1000, 0.5+5*r.Float64())
		}
		plain, err := Solve(pts, Options{Epsilon: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		acc, err := Solve(pts, Options{Epsilon: 1e-8, Acceleration: 1.3})
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(acc.Cost-plain.Cost) / plain.Cost; rel > 1e-6 {
			t.Fatalf("trial %d: accelerated cost %v vs plain %v", trial, acc.Cost, plain.Cost)
		}
		plainIters += plain.Iters
		accIters += acc.Iters
	}
	if accIters >= plainIters {
		t.Fatalf("acceleration did not reduce iterations: %d vs %d", accIters, plainIters)
	}
	t.Logf("iterations: plain %d, accelerated %d (%.1f%%)",
		plainIters, accIters, 100*float64(accIters)/float64(plainIters))
}

func TestAccelerationClamped(t *testing.T) {
	// λ outside [1,2) must be clamped, not explode.
	pts := []WeightedPoint{wp(0, 0, 1), wp(10, 0, 1), wp(5, 8, 1), wp(5, 3, 1)}
	for _, lambda := range []float64{-3, 0.5, 2.0, 50} {
		res, err := Solve(pts, Options{Epsilon: 1e-6, Acceleration: lambda})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Solve(pts, Options{Epsilon: 1e-6})
		if math.Abs(res.Cost-want.Cost) > 1e-3*want.Cost {
			t.Fatalf("lambda=%v diverged: %v vs %v", lambda, res.Cost, want.Cost)
		}
	}
}

func TestBatchAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	groups := make([]Group, 40)
	for gi := range groups {
		n := 5
		g := make(Group, n)
		for i := range g {
			g[i] = wp(r.Float64()*1000, r.Float64()*1000, r.Float64()*10)
		}
		groups[gi] = g
	}
	opt := Options{Epsilon: 1e-4}
	cb, err := solveFlat(groups, nil, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := stream(groups, nil, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(cb.Cost-seq.Cost) / seq.Cost; rel > 1e-3 {
		t.Fatalf("CB cost %v vs Original cost %v (rel %g)", cb.Cost, seq.Cost, rel)
	}
	if cb.Stats.Prefiltered+cb.Stats.PrunedGroups == 0 {
		t.Fatal("cost-bound batch should prune at least one group on this workload")
	}
	if cb.Stats.TotalIters >= seq.Stats.TotalIters {
		t.Fatalf("CB should iterate less: %d vs %d", cb.Stats.TotalIters, seq.Stats.TotalIters)
	}
}

func TestBatchEmpty(t *testing.T) {
	if _, err := solveFlat(nil, nil, Options{}, 1); err != ErrNoPoints {
		t.Fatalf("want ErrNoPoints, got %v", err)
	}
	if _, err := solveFlat([]Group{{}}, nil, Options{}, 1); err != ErrNoPoints {
		t.Fatalf("want ErrNoPoints for all-empty groups, got %v", err)
	}
	if _, err := stream([]Group{{}}, nil, Options{}, false); err != ErrNoPoints {
		t.Fatalf("want ErrNoPoints for all-empty stream, got %v", err)
	}
}

func TestBatchMixedFastPaths(t *testing.T) {
	groups := []Group{
		{wp(0, 0, 1)},                                        // single point
		{wp(0, 0, 1), wp(5, 0, 2)},                           // two points
		{wp(0, 0, 1), wp(4, 0, 1), wp(2, 3, 1)},              // three points
		{wp(0, 0, 1), wp(1, 0, 1), wp(2, 0, 1), wp(3, 0, 1)}, // collinear
	}
	res, err := solveFlat(groups, nil, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The zero-cost single point sets the bound; the 1- and 2-point groups
	// solve exactly (no prefilter below 3 points) and the 3-point and
	// collinear groups are discarded by the pair prefilter.
	if res.Stats.ExactSolves != 2 || res.Stats.Prefiltered != 2 {
		t.Fatalf("want 2 exact solves + 2 prefiltered, got %+v", res.Stats)
	}
	if res.GroupIndex != 0 || res.Cost != 0 {
		t.Fatalf("single-point group should win with zero cost, got %+v", res)
	}
	// Without the cost bound every group takes its exact fast path.
	seq, err := stream(groups, nil, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats.ExactSolves != 4 {
		t.Fatalf("all 4 groups should use exact paths unbounded, got %+v", seq.Stats)
	}
}
