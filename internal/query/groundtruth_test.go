package query

import (
	"math"
	"math/rand"
	"testing"

	"molq/internal/raster"
)

// TestOptimumMatchesRasterGroundTruth cross-checks the full pipeline against
// an algorithm-independent coarse-to-fine grid minimiser of the MWGD field.
// This catches systemic errors (wrong Voronoi cells, dropped combinations,
// mis-folded weights) that the mutual SSC/RRB/MBRB agreement tests would
// miss if all three shared a bug.
func TestOptimumMatchesRasterGroundTruth(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 5; trial++ {
		in := randomInput(r, []int{3 + r.Intn(6), 3 + r.Intn(6), 3 + r.Intn(6)}, true)
		in.Epsilon = 1e-9
		res, err := Solve(in, RRB)
		if err != nil {
			t.Fatal(err)
		}
		_, gridCost := raster.Minimize(in.MWGD, in.Bounds, 48, 7)
		// The grid value is an upper bound of the true optimum sampled at a
		// cell center; the solver must be at least as good (within grid
		// resolution) and never meaningfully worse.
		if res.Cost > gridCost*(1+1e-3)+1e-9 {
			t.Fatalf("trial %d: solver cost %v worse than grid scan %v", trial, res.Cost, gridCost)
		}
		if gridCost < res.Cost*(1-5e-2) {
			t.Fatalf("trial %d: grid scan found %v, far below solver %v — solver missed the optimum",
				trial, gridCost, res.Cost)
		}
	}
}

// TestAdditiveOptimumMatchesRaster does the same for the additive ς^o.
func TestAdditiveOptimumMatchesRaster(t *testing.T) {
	r := rand.New(rand.NewSource(4343))
	in := additiveInput(r, []int{4, 5, 3})
	in.Epsilon = 1e-9
	res, err := Solve(in, MBRB)
	if err != nil {
		t.Fatal(err)
	}
	_, gridCost := raster.Minimize(in.MWGD, in.Bounds, 48, 7)
	if res.Cost > gridCost*(1+1e-3) {
		t.Fatalf("solver cost %v worse than grid %v", res.Cost, gridCost)
	}
	if math.Abs(gridCost-res.Cost) > 5e-2*res.Cost {
		t.Fatalf("grid %v and solver %v diverge", gridCost, res.Cost)
	}
}
