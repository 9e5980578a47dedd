package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"molq/internal/fermat"
	"molq/internal/geom"
	"molq/internal/stats"
)

// RunFig10 reproduces Fig 10: the basic (Original) vs cost-bound (CB)
// Fermat-Weber batch approaches, varying (a) the number of problems at fixed
// ε and (b) the error bound ε at a fixed problem count. Each problem has 5
// points with random coordinates and type weights in (0, 10], as in Sec 6.2.
func RunFig10(o Options) ([]*stats.Table, error) {
	problemSweep := sizesFor([]int{1000, 2000, 4000, 8000, 16000}, []int{200, 400}, o)
	epsSweep := []float64{1e-2, 1e-3, 1e-4, 1e-5}
	if o.Quick {
		epsSweep = []float64{1e-2, 1e-4}
	}
	fixedEps := 1e-3
	fixedProblems := problemSweep[len(problemSweep)/2]

	tbA := stats.NewTable("Fig 10a: varying number of Fermat-Weber problems (ε = 0.001)",
		"problems", "Original", "CB", "speedup", "orig iters", "CB iters", "prefiltered", "pruned", "cost agree")
	for _, n := range problemSweep {
		row, err := fig10Row(n, fixedEps, o.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		tbA.AddRow(row...)
		o.logf("fig10a: %d problems done", n)
	}

	tbB := stats.NewTable(fmt.Sprintf("Fig 10b: varying error bound ε (%d problems)", fixedProblems),
		"epsilon", "Original", "CB", "speedup", "orig iters", "CB iters", "prefiltered", "pruned", "cost agree")
	for _, eps := range epsSweep {
		row, err := fig10Row(fixedProblems, eps, o.Seed+int64(1/eps))
		if err != nil {
			return nil, err
		}
		row[0] = fmt.Sprintf("%g", eps)
		tbB.AddRow(row...)
		o.logf("fig10b: eps=%g done", eps)
	}
	return []*stats.Table{tbA, tbB}, nil
}

func fig10Row(problems int, eps float64, seed int64) ([]string, error) {
	groups := fig10Groups(problems, seed)
	flat := flatBatch(groups)
	opt := fermat.Options{Epsilon: eps}

	startOrig := time.Now()
	orig, err := streamBatch(groups, opt, false, false)
	if err != nil {
		return nil, err
	}
	dOrig := time.Since(startOrig)

	startCB := time.Now()
	cb, err := costBound(flat, opt, 1)
	if err != nil {
		return nil, err
	}
	dCB := time.Since(startCB)

	agree := "yes"
	if math.Abs(cb.Cost-orig.Cost) > 1e-2*math.Max(orig.Cost, 1) {
		agree = fmt.Sprintf("NO (%.5g vs %.5g)", cb.Cost, orig.Cost)
	}
	return []string{
		fmt.Sprintf("%d", problems),
		stats.Dur(dOrig),
		stats.Dur(dCB),
		stats.Speedup(dOrig, dCB),
		fmt.Sprintf("%d", orig.Stats.TotalIters),
		fmt.Sprintf("%d", cb.Stats.TotalIters),
		fmt.Sprintf("%d", cb.Stats.Prefiltered),
		fmt.Sprintf("%d", cb.Stats.PrunedGroups),
		agree,
	}, nil
}

// fig10Groups builds the synthetic batch: 5 points per problem, coordinates
// in the search space, weights in (0, 10].
func fig10Groups(problems int, seed int64) []fermat.Group {
	r := rand.New(rand.NewSource(seed))
	groups := make([]fermat.Group, problems)
	for gi := range groups {
		g := make(fermat.Group, 5)
		for i := range g {
			g[i] = fermat.WeightedPoint{
				P: geom.Pt(
					searchBounds.Min.X+r.Float64()*searchBounds.Width(),
					searchBounds.Min.Y+r.Float64()*searchBounds.Height(),
				),
				W: 0.1 + 9.9*r.Float64(),
			}
		}
		groups[gi] = g
	}
	return groups
}

// flatBatch packs groups into the optimizer's structure-of-arrays layout as
// one zero-offset problem whose points carry their own weights (Typ all 0,
// Scale = {1}).
func flatBatch(groups []fermat.Group) fermat.FlatProblem {
	g := &fermat.FlatGroups{Starts: make([]int32, 0, len(groups)+1)}
	for _, grp := range groups {
		g.Starts = append(g.Starts, int32(len(g.X)))
		for _, p := range grp {
			g.X = append(g.X, p.P.X)
			g.Y = append(g.Y, p.P.Y)
			g.Base = append(g.Base, p.W)
		}
	}
	g.Starts = append(g.Starts, int32(len(g.X)))
	g.Typ = make([]int32, len(g.X))
	return fermat.FlatProblem{Geom: g, Scale: []float64{1}}
}

// costBound runs the production Algorithm 5 driver on one problem.
func costBound(p fermat.FlatProblem, opt fermat.Options, workers int) (fermat.BatchResult, error) {
	out, err := fermat.CostBoundMultiBatchFlatCtx(context.Background(), []fermat.FlatProblem{p}, opt, workers)
	if err != nil {
		return fermat.BatchResult{}, err
	}
	return out[0], nil
}

// streamBatch offers every group in order to a Streamer with Algorithm 5's
// two pruning mechanisms toggled independently; with both off it is the
// "Original" baseline.
func streamBatch(groups []fermat.Group, opt fermat.Options, prefilter, iterBound bool) (fermat.BatchResult, error) {
	s := fermat.NewStreamerVariant(opt, prefilter, iterBound)
	for _, g := range groups {
		if err := s.Offer(g, 0); err != nil {
			return fermat.BatchResult{}, err
		}
	}
	return s.Result()
}
