package experiments

import (
	"fmt"
	"time"

	"molq/internal/core"
	"molq/internal/dataset"
	"molq/internal/stats"
)

// fig14Budget is the "points managed" budget that stands in for the paper's
// 24 GB test bed when probing availability (Fig 14a). At 16 bytes per point
// the full budget models a few hundred MB of boundary data; Quick mode
// shrinks it so the probe finishes in seconds.
const (
	fig14BudgetFull  = 8_000_000
	fig14BudgetQuick = 200_000
)

// fig14Point is one (type count, availability) measurement.
type fig14Point struct {
	types     int
	maxN      int // availability: largest ladder size within budget
	elapsed   time.Duration
	ovrs      int
	points    int
	starElaps time.Duration // RRB* control: RRB at MBRB's availability point
	starOVRs  int
	starPts   int
}

// RunFig14 reproduces Fig 14: overlapping 2–5 Voronoi diagrams. For each
// number of object types it reports (a) availability — the maximum per-type
// object count whose overlap fits the memory budget, (b) execution time,
// (c) OVR count, and (d) points managed, for RRB and MBRB plus the RRB*
// control (RRB executed with MBRB's availability parameters, as the paper
// does for fair comparison).
func RunFig14(o Options) ([]*stats.Table, error) {
	budget := fig14BudgetFull
	ladder := []int{500, 1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000}
	maxTypes := 5
	if o.Quick {
		budget = fig14BudgetQuick
		ladder = []int{100, 200, 400, 800, 1600}
		maxTypes = 4
	}
	results := map[core.Mode]map[int]*fig14Point{
		core.RRB:  {},
		core.MBRB: {},
	}
	for k := 2; k <= maxTypes; k++ {
		for _, mode := range []core.Mode{core.RRB, core.MBRB} {
			pt, err := probeAvailability(k, ladder, budget, mode, o)
			if err != nil {
				return nil, err
			}
			results[mode][k] = pt
			o.logf("fig14: %d types %v: availability %d objects (%v, %d OVRs)",
				k, mode, pt.maxN, pt.elapsed, pt.ovrs)
		}
		// RRB* control: run RRB at MBRB's availability size.
		mb := results[core.MBRB][k]
		star, err := overlapChain(k, mb.maxN, core.RRB, o)
		if err != nil {
			return nil, err
		}
		mb.starElaps = star.elapsed
		mb.starOVRs = star.ovrs
		mb.starPts = star.points
	}

	tbA := stats.NewTable("Fig 14a: availability (max objects/type within memory budget)",
		"types", "RRB max", "MBRB max")
	tbB := stats.NewTable("Fig 14b: execution time at availability sizes",
		"types", "RRB", "MBRB", "RRB* (at MBRB size)")
	tbC := stats.NewTable("Fig 14c: number of OVRs at availability sizes",
		"types", "RRB", "MBRB", "RRB*", "MBRB/RRB*")
	tbD := stats.NewTable("Fig 14d: points managed at availability sizes",
		"types", "RRB", "MBRB", "RRB*", "MBRB/RRB*")
	for k := 2; k <= maxTypes; k++ {
		rr := results[core.RRB][k]
		mb := results[core.MBRB][k]
		tbA.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%d", rr.maxN), fmt.Sprintf("%d", mb.maxN))
		tbB.AddRow(fmt.Sprintf("%d", k), stats.Dur(rr.elapsed), stats.Dur(mb.elapsed), stats.Dur(mb.starElaps))
		tbC.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", rr.ovrs), fmt.Sprintf("%d", mb.ovrs), fmt.Sprintf("%d", mb.starOVRs),
			ratio(mb.ovrs, mb.starOVRs))
		tbD.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", rr.points), fmt.Sprintf("%d", mb.points), fmt.Sprintf("%d", mb.starPts),
			ratio(mb.points, mb.starPts))
	}
	return []*stats.Table{tbA, tbB, tbC, tbD}, nil
}

func ratio(a, b int) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

// probeAvailability climbs the size ladder until the overlap chain exceeds
// the points budget, returning the measurements at the last size that fits.
func probeAvailability(types int, ladder []int, budget int, mode core.Mode, o Options) (*fig14Point, error) {
	var last *fig14Point
	for _, n := range ladder {
		pt, err := overlapChainCapped(types, n, mode, o, 2*budget)
		if err != nil {
			return nil, err
		}
		if pt.points > budget || pt.points < 0 {
			break
		}
		last = pt
	}
	if last == nil {
		// Even the smallest ladder size exceeds the budget; report it with
		// availability 0 measurements from the first rung.
		pt, err := overlapChainCapped(types, ladder[0], mode, o, 2*budget)
		if err != nil {
			return nil, err
		}
		pt.maxN = 0
		return pt, nil
	}
	return last, nil
}

// overlapChain overlaps `types` basic MOVDs of n objects each (type sequence
// per Sec 6.4: STM, CH, SCH, PPL, BLDG) and measures the sequential ⊕.
func overlapChain(types, n int, mode core.Mode, o Options) (*fig14Point, error) {
	return overlapChainCapped(types, n, mode, o, 0)
}

// overlapChainCapped aborts the fold early once the intermediate MOVD
// exceeds maxPoints (≤ 0 disables the check). The truncated result
// still reports a points value over the cap, which is all the availability
// probe needs — it keeps the MBRB false-positive explosion from allocating
// unboundedly past the budget.
func overlapChainCapped(types, n int, mode core.Mode, o Options, maxPoints int) (*fig14Point, error) {
	basics := make([]*core.MOVD, types)
	for ti := 0; ti < types; ti++ {
		m, err := buildBasic(dataset.PaperTypes[ti], n, ti, o.Seed+int64(ti), mode)
		if err != nil {
			return nil, fmt.Errorf("fig14 types=%d n=%d: %w", types, n, err)
		}
		basics[ti] = m
	}
	start := time.Now()
	acc := basics[0]
	var err error
	for _, m := range basics[1:] {
		acc, _, err = core.Overlap(nil, 1, nil, acc, m)
		if err != nil {
			return nil, err
		}
		if maxPoints > 0 && acc.PointsManaged() > maxPoints {
			break
		}
	}
	elapsed := time.Since(start)
	return &fig14Point{
		types:   types,
		maxN:    n,
		elapsed: elapsed,
		ovrs:    acc.Len(),
		points:  acc.PointsManaged(),
	}, nil
}
