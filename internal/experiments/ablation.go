package experiments

import (
	"fmt"
	"math"
	"time"

	"molq/internal/core"
	"molq/internal/dataset"
	"molq/internal/fermat"
	"molq/internal/query"
	"molq/internal/stats"
	"molq/internal/voronoi"
)

// Ablations returns the extension experiments: design-choice studies beyond
// the paper's figures (DESIGN.md calls these out). They share the molqbench
// registry under ids ext1–ext9 (ext8, the flight-recorder overhead study,
// is an external load measurement documented in EXPERIMENTS.md only).
func Ablations() []Figure {
	return []Figure{
		{ID: "ext1", Title: "Ablation: combination pruning during overlap (Sec 8 future work)", Run: RunExt1},
		{ID: "ext2", Title: "Ablation: Algorithm 5 pruning mechanisms (prefilter vs iteration bound)", Run: RunExt2},
		{ID: "ext3", Title: "Ablation: overlap candidate detection (sweep vs naive vs R-tree)", Run: RunExt3},
		{ID: "ext4", Title: "Ablation: parallel optimizer scaling", Run: RunExt4},
		{ID: "ext5", Title: "Ablation: Voronoi generators (incremental vs Fortune) and engine reuse", Run: RunExt5},
		{ID: "ext6", Title: "Ablation: parallel overlap engine (sharded sweep + chain reduction)", Run: RunExt6},
		{ID: "ext7", Title: "Ablation: exact vs approximate weighted MWVD (build time and answer quality)", Run: RunExt7},
		{ID: "ext9", Title: "Ablation: approximate MWVD at scale (phase breakdown, heap peak, crossover)", Run: RunExt9},
	}
}

// RunExt1 measures the Sec-8 pruning extension: RRB and MBRB with and
// without overlap-time combination pruning.
func RunExt1(o Options) ([]*stats.Table, error) {
	sizes := sizesFor([]int{32, 64, 128}, []int{16, 32}, o)
	types := []string{dataset.STM, dataset.CH, dataset.SCH}
	tb := stats.NewTable("Ext 1: overlap-time combination pruning (three types)",
		"objects/type", "method", "time off", "time on", "OVRs off", "OVRs on", "pruned", "cost agree")
	for _, n := range sizes {
		in := molqInput(types, n, o.Seed+int64(n))
		for _, m := range []query.Method{query.RRB, query.MBRB} {
			base, err := query.Solve(in, m)
			if err != nil {
				return nil, err
			}
			pin := in
			pin.PruneOverlap = true
			pruned, err := query.Solve(pin, m)
			if err != nil {
				return nil, err
			}
			agree := "yes"
			if math.Abs(base.Cost-pruned.Cost) > 1e-6*math.Max(1, base.Cost) {
				agree = fmt.Sprintf("NO (%.6g vs %.6g)", pruned.Cost, base.Cost)
			}
			tb.AddRow(
				fmt.Sprintf("%d", n), m.String(),
				stats.Dur(base.Stats.TotalTime), stats.Dur(pruned.Stats.TotalTime),
				fmt.Sprintf("%d", base.Stats.OVRs), fmt.Sprintf("%d", pruned.Stats.OVRs),
				fmt.Sprintf("%d", pruned.Stats.Overlap.PrunedOVRs),
				agree,
			)
		}
		o.logf("ext1: n=%d done", n)
	}
	return []*stats.Table{tb}, nil
}

// RunExt2 attributes the Algorithm 5 speedup to its two mechanisms by
// toggling them independently on a Fig-10 style batch.
func RunExt2(o Options) ([]*stats.Table, error) {
	problems := 4000
	if o.Quick {
		problems = 400
	}
	groups := fig10Groups(problems, o.Seed+1)
	opt := fermat.Options{Epsilon: 1e-4}
	tb := stats.NewTable(fmt.Sprintf("Ext 2: Alg 5 mechanism ablation (%d problems, ε=1e-4)", problems),
		"variant", "time", "iterations", "prefiltered", "pruned", "cost")
	variants := []struct {
		name      string
		prefilter bool
		iterBound bool
		accel     float64
	}{
		{"none (Original)", false, false, 0},
		{"prefilter only", true, false, 0},
		{"iteration bound only", false, true, 0},
		{"both (Alg 5)", true, true, 0},
		{"Alg 5 + Ostresh λ=1.3", true, true, 1.3},
	}
	var costs []float64
	for _, v := range variants {
		vopt := opt
		vopt.Acceleration = v.accel
		start := time.Now()
		res, err := streamBatch(groups, vopt, v.prefilter, v.iterBound)
		if err != nil {
			return nil, err
		}
		costs = append(costs, res.Cost)
		tb.AddRow(v.name, stats.Dur(time.Since(start)),
			fmt.Sprintf("%d", res.Stats.TotalIters),
			fmt.Sprintf("%d", res.Stats.Prefiltered),
			fmt.Sprintf("%d", res.Stats.PrunedGroups),
			fmt.Sprintf("%.4f", res.Cost))
		o.logf("ext2: %s done", v.name)
	}
	for _, c := range costs[1:] {
		if math.Abs(c-costs[0]) > 1e-2*costs[0] {
			return nil, fmt.Errorf("ext2: variants disagree on the optimum: %v", costs)
		}
	}
	return []*stats.Table{tb}, nil
}

// RunExt3 compares candidate-detection strategies for ⊕: the paper's plane
// sweep (with a linear-scan active set as its status), a naive all-pairs scan,
// and an STR R-tree.
func RunExt3(o Options) ([]*stats.Table, error) {
	sizes := sizesFor([]int{5000, 20000, 80000}, []int{1000, 2000}, o)
	tb := stats.NewTable("Ext 3: overlap candidate detection (two RRB diagrams)",
		"size/side", "sweep", "naive", "rtree", "sweep pairs", "naive pairs", "rtree pairs")
	for _, n := range sizes {
		a, err := buildBasic(dataset.STM, n, 0, o.Seed+1, core.RRB)
		if err != nil {
			return nil, err
		}
		b, err := buildBasic(dataset.CH, n, 1, o.Seed+2, core.RRB)
		if err != nil {
			return nil, err
		}
		type variant struct {
			name string
			run  func() (*core.MOVD, core.OverlapStats, error)
		}
		variants := []variant{
			{"sweep", func() (*core.MOVD, core.OverlapStats, error) { return core.Overlap(nil, 1, nil, a, b) }},
			{"naive", func() (*core.MOVD, core.OverlapStats, error) { return OverlapNaive(a, b) }},
			{"rtree", func() (*core.MOVD, core.OverlapStats, error) { return OverlapRTree(a, b) }},
		}
		// The naive variant is quadratic; skip it at the largest full-scale
		// size to keep the run bounded, reporting "-".
		times := map[string]string{}
		pairs := map[string]string{}
		var lens []int
		for _, v := range variants {
			if v.name == "naive" && n > 20000 {
				times[v.name], pairs[v.name] = "-", "-"
				continue
			}
			start := time.Now()
			m, st, err := v.run()
			if err != nil {
				return nil, err
			}
			times[v.name] = stats.Dur(time.Since(start))
			pairs[v.name] = fmt.Sprintf("%d", st.CandidatePairs)
			lens = append(lens, m.Len())
		}
		for _, l := range lens[1:] {
			if l != lens[0] {
				return nil, fmt.Errorf("ext3: variants disagree on OVR count: %v", lens)
			}
		}
		tb.AddRow(fmt.Sprintf("%d", n),
			times["sweep"], times["naive"], times["rtree"],
			pairs["sweep"], pairs["naive"], pairs["rtree"])
		o.logf("ext3: n=%d done", n)
	}
	return []*stats.Table{tb}, nil
}

// RunExt5 compares the two Voronoi generators and measures the prepared
// Engine's per-query cost against a cold solve.
func RunExt5(o Options) ([]*stats.Table, error) {
	// Part A: generator comparison.
	sizes := sizesFor([]int{1000, 10000, 50000}, []int{500, 2000}, o)
	tbA := stats.NewTable("Ext 5a: Voronoi generator comparison",
		"sites", "incremental (Bowyer-Watson)", "Fortune sweep", "cells agree")
	cfg := dataset.Config{Seed: o.Seed, Bounds: searchBounds}
	for _, n := range sizes {
		sites := dataset.Generate(cfg, dataset.PPL, n)
		startI := time.Now()
		di, err := voronoi.Compute(sites, searchBounds)
		if err != nil {
			return nil, err
		}
		dI := time.Since(startI)
		startF := time.Now()
		df, err := voronoi.ComputeFortune(sites, searchBounds)
		if err != nil {
			return nil, err
		}
		dF := time.Since(startF)
		agree := "yes"
		for i := range sites {
			if math.Abs(di.Cells[i].Area()-df.Cells[i].Area()) > 1e-6*math.Max(1, di.Cells[i].Area()) {
				agree = fmt.Sprintf("NO (site %d)", i)
				break
			}
		}
		tbA.AddRow(fmt.Sprintf("%d", n), stats.Dur(dI), stats.Dur(dF), agree)
		o.logf("ext5a: n=%d done", n)
	}
	// Part B: engine reuse.
	n := 200
	queries := 20
	if o.Quick {
		n, queries = 50, 5
	}
	types := []string{dataset.STM, dataset.CH, dataset.SCH}
	in := molqInput(types, n, o.Seed+3)
	tbB := stats.NewTable("Ext 5b: prepared engine vs cold solves",
		"metric", "value")
	startCold := time.Now()
	for qi := 0; qi < queries; qi++ {
		if _, err := query.Solve(in, query.RRB); err != nil {
			return nil, err
		}
	}
	cold := time.Since(startCold)
	eng, err := query.NewEngine(in, query.RRB)
	if err != nil {
		return nil, err
	}
	weights := make([]float64, len(types))
	startWarm := time.Now()
	for qi := 0; qi < queries; qi++ {
		for ti := range weights {
			weights[ti] = typeWeight(o.Seed+int64(qi), ti)
		}
		if _, err := eng.Query(weights); err != nil {
			return nil, err
		}
	}
	warm := time.Since(startWarm)
	tbB.AddRow("objects/type", fmt.Sprintf("%d", n))
	tbB.AddRow("queries", fmt.Sprintf("%d", queries))
	tbB.AddRow("cold solves", stats.Dur(cold))
	tbB.AddRow("engine prepare", stats.Dur(eng.PrepTime()))
	tbB.AddRow("engine queries", stats.Dur(warm))
	tbB.AddRow("speedup (steady state)", stats.Speedup(cold, warm))
	o.logf("ext5b: done")
	return []*stats.Table{tbA, tbB}, nil
}

// RunExt6 measures the parallel ⊕ engine. Part A shards one Fig-11-scale
// pairwise overlap across worker strips (strips = workers in the engine) and
// verifies every run emits the sequential sweep's OVR multiset. Part B folds
// a four-diagram chain by balanced parallel reduction and checks the final
// optimum against the sequential left fold.
func RunExt6(o Options) ([]*stats.Table, error) {
	// Part A: sharded sweep over one pairwise ⊕ (Fig 11 scale).
	sizes := sizesFor([]int{2000, 8000}, []int{500, 1000}, o)
	workerCounts := []int{2, 4, 8}
	tbA := stats.NewTable("Ext 6a: sharded plane sweep (strips = workers, two diagrams)",
		"size/side", "mode", "sequential", "w=2", "w=4", "w=8", "speedup w=4", "multiset agree")
	for _, n := range sizes {
		for _, mode := range []core.Mode{core.RRB, core.MBRB} {
			a, err := buildBasic(dataset.STM, n, 0, o.Seed+1, mode)
			if err != nil {
				return nil, err
			}
			b, err := buildBasic(dataset.CH, n, 1, o.Seed+2, mode)
			if err != nil {
				return nil, err
			}
			startSeq := time.Now()
			seq, _, err := core.Overlap(nil, 1, nil, a, b)
			if err != nil {
				return nil, err
			}
			dSeq := time.Since(startSeq)
			want := keyMultiset(seq)
			agree := "yes"
			times := make([]time.Duration, len(workerCounts))
			for wi, w := range workerCounts {
				start := time.Now()
				par, _, err := core.Overlap(nil, w, nil, a, b)
				if err != nil {
					return nil, err
				}
				times[wi] = time.Since(start)
				if !multisetsEqual(want, keyMultiset(par)) {
					agree = fmt.Sprintf("NO (w=%d)", w)
				}
			}
			tbA.AddRow(fmt.Sprintf("%d", n), mode.String(), stats.Dur(dSeq),
				stats.Dur(times[0]), stats.Dur(times[1]), stats.Dur(times[2]),
				stats.Speedup(dSeq, times[1]), agree)
			o.logf("ext6a: n=%d %s done", n, mode)
		}
	}
	// Part B: balanced reduction of a four-diagram chain inside the full
	// pipeline (Workers also shards every pairwise sweep).
	n := 128
	if o.Quick {
		n = 32
	}
	types := []string{dataset.STM, dataset.CH, dataset.SCH, dataset.PPL}
	in := molqInput(types, n, o.Seed+7)
	tbB := stats.NewTable(fmt.Sprintf("Ext 6b: chain reduction in the pipeline (%d types, %d objects/type)", len(types), n),
		"method", "workers", "time", "OVRs", "cost agree")
	for _, m := range []query.Method{query.RRB, query.MBRB} {
		base, err := query.Solve(in, m)
		if err != nil {
			return nil, err
		}
		tbB.AddRow(m.String(), "1", stats.Dur(base.Stats.TotalTime),
			fmt.Sprintf("%d", base.Stats.OVRs), "baseline")
		for _, w := range []int{2, 4} {
			pin := in
			pin.Workers = w
			res, err := query.Solve(pin, m)
			if err != nil {
				return nil, err
			}
			agree := "yes"
			if math.Abs(res.Cost-base.Cost) > 1e-6*math.Max(1, base.Cost) {
				agree = fmt.Sprintf("NO (%.6g vs %.6g)", res.Cost, base.Cost)
			}
			if res.Stats.OVRs != base.Stats.OVRs {
				agree = fmt.Sprintf("NO (%d vs %d OVRs)", res.Stats.OVRs, base.Stats.OVRs)
			}
			tbB.AddRow(m.String(), fmt.Sprintf("%d", w), stats.Dur(res.Stats.TotalTime),
				fmt.Sprintf("%d", res.Stats.OVRs), agree)
		}
		o.logf("ext6b: %s done", m)
	}
	return []*stats.Table{tbA, tbB}, nil
}

// keyMultiset counts a diagram's OVRs by combination key.
func keyMultiset(m *core.MOVD) map[string]int {
	out := make(map[string]int, m.Len())
	for i := range m.OVRs {
		out[m.OVRs[i].Key()]++
	}
	return out
}

func multisetsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// RunExt4 measures the parallel cost-bound optimizer across worker counts.
func RunExt4(o Options) ([]*stats.Table, error) {
	problems := 8000
	if o.Quick {
		problems = 500
	}
	flat := flatBatch(fig10Groups(problems, o.Seed+9))
	opt := fermat.Options{Epsilon: 1e-4}
	tb := stats.NewTable(fmt.Sprintf("Ext 4: parallel optimizer scaling (%d problems)", problems),
		"workers", "time", "iterations", "cost")
	seq, err := costBound(flat, opt, 1)
	if err != nil {
		return nil, err
	}
	for _, w := range []int{1, 2, 4, 8} {
		start := time.Now()
		res, err := costBound(flat, opt, w)
		if err != nil {
			return nil, err
		}
		if res.Cost != seq.Cost || res.GroupIndex != seq.GroupIndex {
			return nil, fmt.Errorf("ext4: workers=%d cost %v vs sequential %v", w, res.Cost, seq.Cost)
		}
		tb.AddRow(fmt.Sprintf("%d", w), stats.Dur(time.Since(start)),
			fmt.Sprintf("%d", res.Stats.TotalIters), fmt.Sprintf("%.4f", res.Cost))
		o.logf("ext4: workers=%d done", w)
	}
	return []*stats.Table{tb}, nil
}
