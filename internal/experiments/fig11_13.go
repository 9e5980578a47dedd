package experiments

import (
	"fmt"
	"time"

	"molq/internal/core"
	"molq/internal/dataset"
	"molq/internal/stats"
)

// pairOverlapResult holds one size point of the Fig 11–13 sweep.
type pairOverlapResult struct {
	n          int
	rrbTime    time.Duration
	mbrbTime   time.Duration
	rrbOVRs    int
	mbrbOVRs   int
	rrbPoints  int // boundary points managed (Fig 13 metric)
	mbrbPoints int
	rrbHeap    uint64 // measured live-heap growth
	mbrbHeap   uint64
	rrbStats   core.OverlapStats
	mbrbStats  core.OverlapStats
}

// runPairOverlaps executes the two-diagram overlap for each size with both
// boundary strategies. The diagrams are built from STM and CH samples as in
// Sec 6.3; Voronoi construction time is excluded (the figure measures the
// overlap operation).
func runPairOverlaps(sizes []int, o Options) ([]pairOverlapResult, error) {
	var out []pairOverlapResult
	for _, n := range sizes {
		res := pairOverlapResult{n: n}
		for _, mode := range []core.Mode{core.RRB, core.MBRB} {
			a, err := buildBasic(dataset.STM, n, 0, o.Seed+1, mode)
			if err != nil {
				return nil, fmt.Errorf("fig11-13 n=%d: %w", n, err)
			}
			b, err := buildBasic(dataset.CH, n, 1, o.Seed+2, mode)
			if err != nil {
				return nil, fmt.Errorf("fig11-13 n=%d: %w", n, err)
			}
			var m *core.MOVD
			var st core.OverlapStats
			heap := stats.HeapDelta(func() {
				m, st, err = core.Overlap(nil, 1, nil, a, b)
			})
			if err != nil {
				return nil, err
			}
			start := time.Now()
			// Re-run for a clean timing unpolluted by the GC cycles of the
			// heap measurement.
			m2, _, err := core.Overlap(nil, 1, nil, a, b)
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			if m2.Len() != m.Len() {
				return nil, fmt.Errorf("fig11-13: nondeterministic overlap (%d vs %d OVRs)", m2.Len(), m.Len())
			}
			switch mode {
			case core.RRB:
				res.rrbTime = elapsed
				res.rrbOVRs = m.Len()
				res.rrbPoints = m.PointsManaged()
				res.rrbHeap = heap
				res.rrbStats = st
			case core.MBRB:
				res.mbrbTime = elapsed
				res.mbrbOVRs = m.Len()
				res.mbrbPoints = m.PointsManaged()
				res.mbrbHeap = heap
				res.mbrbStats = st
			}
		}
		o.logf("fig11-13: n=%d done (RRB %v, MBRB %v)", n, res.rrbTime, res.mbrbTime)
		out = append(out, res)
	}
	return out, nil
}

func pairSizes(o Options) []int {
	return sizesFor([]int{10000, 20000, 40000, 80000, 160000}, []int{1000, 2000}, o)
}

// RunFig11 reproduces Fig 11: execution time of overlapping two ordinary
// Voronoi diagrams, RRB vs MBRB, across data set sizes.
func RunFig11(o Options) ([]*stats.Table, error) {
	results, err := runPairOverlaps(pairSizes(o), o)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("Fig 11: overlap execution time (two diagrams, STM × CH)",
		"size/side", "RRB", "MBRB", "MBRB speedup", "RRB region tests", "candidate pairs")
	for _, r := range results {
		tb.AddRow(
			fmt.Sprintf("%d", r.n),
			stats.Dur(r.rrbTime),
			stats.Dur(r.mbrbTime),
			stats.Speedup(r.rrbTime, r.mbrbTime),
			fmt.Sprintf("%d", r.rrbStats.RegionTests),
			fmt.Sprintf("%d", r.mbrbStats.CandidatePairs),
		)
	}
	return []*stats.Table{tb}, nil
}

// RunFig12 reproduces Fig 12: the number of OVRs produced by the two
// strategies (MBRB's false positives inflate the count).
func RunFig12(o Options) ([]*stats.Table, error) {
	results, err := runPairOverlaps(pairSizes(o), o)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("Fig 12: number of OVRs (two diagrams)",
		"size/side", "RRB OVRs", "MBRB OVRs", "MBRB/RRB")
	for _, r := range results {
		tb.AddRow(
			fmt.Sprintf("%d", r.n),
			fmt.Sprintf("%d", r.rrbOVRs),
			fmt.Sprintf("%d", r.mbrbOVRs),
			fmt.Sprintf("%.2f", float64(r.mbrbOVRs)/float64(r.rrbOVRs)),
		)
	}
	return []*stats.Table{tb}, nil
}

// RunFig13 reproduces Fig 13: memory consumption. The primary metric is the
// paper's "total points managed" (polygon vertices for RRB, two corners per
// OVR for MBRB); measured heap growth is reported alongside.
func RunFig13(o Options) ([]*stats.Table, error) {
	results, err := runPairOverlaps(pairSizes(o), o)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("Fig 13: memory consumption (two diagrams)",
		"size/side", "RRB points", "MBRB points", "MBRB/RRB", "RRB heap", "MBRB heap")
	for _, r := range results {
		tb.AddRow(
			fmt.Sprintf("%d", r.n),
			fmt.Sprintf("%d", r.rrbPoints),
			fmt.Sprintf("%d", r.mbrbPoints),
			fmt.Sprintf("%.2f", float64(r.mbrbPoints)/float64(r.rrbPoints)),
			stats.Bytes(r.rrbHeap),
			stats.Bytes(r.mbrbHeap),
		)
	}
	return []*stats.Table{tb}, nil
}
