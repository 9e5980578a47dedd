package mwvd

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"molq/internal/geom"
	"molq/internal/weighted"
)

// This file covers the scale machinery: the adaptive task decomposition, the
// streaming accumulator's box-coverage cutoff under extreme weight ratios,
// the EachLeaf cell walk feeding the RRB path, and the auto-ε formula.

// extremeRatioSites draws sites whose weights span at least the given ratio
// (the heaviest over the lightest), the regime where heavy sites' regions
// collapse to slivers and the coverage cutoff fires earliest.
func extremeRatioSites(r *rand.Rand, n int, bounds geom.Rect, ratio float64) []Site {
	sites := make([]Site, n)
	for i := range sites {
		w := math.Exp(r.Float64() * math.Log(ratio))
		if i == 0 {
			w = 1 // pin the extremes so the ratio is actually realized
		} else if i == 1 {
			w = ratio
		}
		sites[i] = Site{
			P: geom.Pt(bounds.Min.X+r.Float64()*bounds.Width(), bounds.Min.Y+r.Float64()*bounds.Height()),
			W: w,
		}
	}
	return sites
}

// TestCutoffFiresOnlyOnConservativeBoxes is the satellite property test: the
// box-coverage cutoff must never fire before every candidate's accumulated
// box is conservative for the skipped cell — i.e. the cutoff's own firing
// condition (cell ⊆ every candidate's box) must hold on the snapshot the
// hook observes, and the final streamed boxes must still contain every
// point's true winner. Weight ratios from 1e6 up to 1e12 probe the regime
// where squared-space factors span 24 decades.
func TestCutoffFiresOnlyOnConservativeBoxes(t *testing.T) {
	b := testBounds()
	for _, ratio := range []float64{1e6, 1e9, 1e12} {
		r := rand.New(rand.NewSource(int64(math.Log10(ratio))))
		sites := extremeRatioSites(r, 300, b, ratio)
		fired := 0
		cutoffHook = func(rect geom.Rect, cands []int32, boxes []geom.Rect) {
			fired++
			if len(cands) < 2 {
				t.Errorf("ratio=%g: cutoff fired on %d candidates", ratio, len(cands))
			}
			for k := range cands {
				if !rectInside(rect, boxes[k]) {
					t.Errorf("ratio=%g: cutoff fired at %v with candidate %d's box %v not yet covering it",
						ratio, rect, cands[k], boxes[k])
				}
			}
		}
		mbrs, _, err := ApproxDominanceMBRs(sites, b, Options{Epsilon: 0.2, Workers: 1})
		cutoffHook = nil
		if err != nil {
			t.Fatal(err)
		}
		if fired == 0 {
			t.Fatalf("ratio=%g: cutoff never fired — the property test is vacuous", ratio)
		}
		// End-to-end conservativeness at the extreme ratio: every probe's
		// true weighted winner keeps the probe inside its streamed box.
		for i := 0; i < 2000; i++ {
			q := geom.Pt(b.Min.X+r.Float64()*b.Width(), b.Min.Y+r.Float64()*b.Height())
			win := weighted.NearestWeighted(sites, q)
			if !mbrs[win].Contains(q) {
				t.Fatalf("ratio=%g: winner %d of %v outside its box %v", ratio, win, q, mbrs[win])
			}
		}
		// And the streamed boxes must still be bit-equal to full refinement.
		d, err := Build(sites, b, Options{Epsilon: 0.2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := range sites {
			if mbrs[i] != d.MBRs()[i] {
				t.Fatalf("ratio=%g: site %d streamed box %v != tree box %v", ratio, i, mbrs[i], d.MBRs()[i])
			}
		}
	}
}

// TestWeightValidationRejectsNonFinite: +Inf, NaN, zero, negative, and
// multiplicative weights whose square overflows must all be rejected — any
// of them poisons the squared comparison space with NaN and silently
// disables pruning and the coverage cutoff.
func TestWeightValidationRejectsNonFinite(t *testing.T) {
	b := testBounds()
	good := Site{P: geom.Pt(10, 10), W: 1}
	cases := []struct {
		name   string
		w      float64
		metric Metric
	}{
		{"plus-inf", math.Inf(1), Multiplicative},
		{"nan", math.NaN(), Multiplicative},
		{"zero", 0, Multiplicative},
		{"negative", -2, Multiplicative},
		{"square-overflow", 1.5e154, Multiplicative}, // w finite, w² = +Inf
		{"additive-inf", math.Inf(1), Additive},
	}
	for _, tc := range cases {
		_, err := Build([]Site{good, {P: geom.Pt(90, 90), W: tc.w}}, b, Options{Metric: tc.metric})
		if !errors.Is(err, ErrBadWeight) {
			t.Errorf("%s: got %v, want ErrBadWeight", tc.name, err)
		}
		_, _, err = ApproxDominanceMBRs([]Site{good, {P: geom.Pt(90, 90), W: tc.w}}, b, Options{Metric: tc.metric})
		if !errors.Is(err, ErrBadWeight) {
			t.Errorf("%s (streaming): got %v, want ErrBadWeight", tc.name, err)
		}
	}
	// The additive metric never squares, so a large-but-finite weight that
	// would overflow the multiplicative comparison space stays valid there.
	if _, err := Build([]Site{good, {P: geom.Pt(90, 90), W: 1.5e154}}, b, Options{Metric: Additive}); err != nil {
		t.Errorf("additive large weight: unexpected error %v", err)
	}
}

// collectLeaves gathers EachLeaf output in deterministic visit order.
type leafCell struct {
	rect  geom.Rect
	sites []int32
}

func collectLeaves(d *Diagram) []leafCell {
	var out []leafCell
	d.EachLeaf(func(rect geom.Rect, sites []int32) {
		out = append(out, leafCell{rect: rect, sites: append([]int32(nil), sites...)})
	})
	return out
}

// TestAdaptiveGridWorkerInvariance is the satellite decomposition test: at
// every pinned grid level and in auto mode, boxes, stats, and the full leaf
// cell structure must be bit-identical at 1, 2, 4 and 16 workers.
func TestAdaptiveGridWorkerInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	b := testBounds()
	sites := randomSites(r, 600, b)
	for _, level := range []int{0, 2, 3, 4} { // 0 = auto
		opts := Options{Epsilon: 0.1, TaskGridLevel: level, Workers: 1}
		seq, err := Build(sites, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if level > 0 && seq.gridLevel != level {
			t.Fatalf("TaskGridLevel=%d not honoured: got %d", level, seq.gridLevel)
		}
		seqLeaves := collectLeaves(seq)
		for _, workers := range []int{2, 4, 16} {
			opts.Workers = workers
			par, err := Build(sites, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			if statsNoPhases(par.Stats()) != statsNoPhases(seq.Stats()) {
				t.Fatalf("level=%d workers=%d stats %+v != sequential %+v",
					level, workers, par.Stats(), seq.Stats())
			}
			for i := range sites {
				if par.MBRs()[i] != seq.MBRs()[i] {
					t.Fatalf("level=%d workers=%d site %d box differs", level, workers, i)
				}
			}
			parLeaves := collectLeaves(par)
			if len(parLeaves) != len(seqLeaves) {
				t.Fatalf("level=%d workers=%d: %d leaves != %d sequential",
					level, workers, len(parLeaves), len(seqLeaves))
			}
			for i := range parLeaves {
				if parLeaves[i].rect != seqLeaves[i].rect || !int32sEqual(parLeaves[i].sites, seqLeaves[i].sites) {
					t.Fatalf("level=%d workers=%d: leaf %d differs: %+v vs %+v",
						level, workers, i, parLeaves[i], seqLeaves[i])
				}
			}
		}
	}
}

// TestEachLeafTilesBounds: the merged cells must exactly tile the search
// space — every probe point lies in exactly one visited cell (boundary
// probes excluded), each with a non-empty candidate list containing the
// probe's true weighted winner.
func TestEachLeafTilesBounds(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	b := testBounds()
	sites := randomSites(r, 150, b)
	d, err := Build(sites, b, Options{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	leaves := collectLeaves(d)
	if len(leaves) == 0 {
		t.Fatal("no leaves visited")
	}
	area := 0.0
	for _, lf := range leaves {
		if len(lf.sites) == 0 {
			t.Fatalf("leaf %v has no candidates", lf.rect)
		}
		area += lf.rect.Width() * lf.rect.Height()
	}
	if total := b.Width() * b.Height(); math.Abs(area-total)/total > 1e-9 {
		t.Fatalf("leaf area %g != bounds area %g: cells do not tile", area, total)
	}
	// Sibling-quartet merging must actually compress: the visited cell count
	// has to come in under the raw refinement leaf count.
	if raw := d.Stats().Cells; len(leaves) >= raw {
		t.Fatalf("merged %d cells ≥ %d raw leaves: quartet merge ineffective", len(leaves), raw)
	}
	for i := 0; i < 3000; i++ {
		q := geom.Pt(b.Min.X+r.Float64()*b.Width(), b.Min.Y+r.Float64()*b.Height())
		hits := 0
		var cell leafCell
		for _, lf := range leaves {
			// Half-open containment matching childAt's midline convention.
			if q.X >= lf.rect.Min.X && q.X < lf.rect.Max.X && q.Y >= lf.rect.Min.Y && q.Y < lf.rect.Max.Y {
				hits++
				cell = lf
			}
		}
		if hits != 1 {
			t.Fatalf("probe %v lies in %d cells, want exactly 1", q, hits)
		}
		win := weighted.NearestWeighted(sites, q)
		if !containsSite(cell.sites, int32(win)) {
			t.Fatalf("probe %v: true winner %d missing from cell %v candidates %v",
				q, win, cell.rect, cell.sites)
		}
	}
}

// TestAutoEpsilon pins the formula's shape: flat at DefaultEpsilon through
// the per-core base, monotone √-growth past it, capped at MaxAutoEpsilon.
func TestAutoEpsilon(t *testing.T) {
	base := autoEpsilonBaseSites * runtime.GOMAXPROCS(0)
	if got := AutoEpsilon(1); got != DefaultEpsilon {
		t.Fatalf("AutoEpsilon(1) = %g", got)
	}
	if got := AutoEpsilon(base); got != DefaultEpsilon {
		t.Fatalf("AutoEpsilon(base) = %g", got)
	}
	if got, want := AutoEpsilon(4*base), DefaultEpsilon*2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("AutoEpsilon(4·base) = %g, want %g", got, want)
	}
	prev := 0.0
	for _, n := range []int{base, 2 * base, 8 * base, 100 * base, 10000 * base} {
		got := AutoEpsilon(n)
		if got < prev {
			t.Fatalf("AutoEpsilon not monotone at n=%d: %g < %g", n, got, prev)
		}
		if got > MaxAutoEpsilon {
			t.Fatalf("AutoEpsilon(%d) = %g exceeds cap", n, got)
		}
		prev = got
	}
	if got := AutoEpsilon(10000 * base); got != MaxAutoEpsilon {
		t.Fatalf("AutoEpsilon far past base = %g, want cap %g", got, MaxAutoEpsilon)
	}
}

// TestAutoGridLevelDensityGuard: tiny inputs must stay at the minimum level
// regardless of processor count, and the level never leaves [2, 6].
func TestAutoGridLevelDensityGuard(t *testing.T) {
	if got := autoGridLevel(1); got != minGridLevel {
		t.Fatalf("autoGridLevel(1) = %d, want %d", got, minGridLevel)
	}
	for _, n := range []int{1, 100, 10000, 1000000, 100000000} {
		lvl := autoGridLevel(n)
		if lvl < minGridLevel || lvl > maxGridLevel {
			t.Fatalf("autoGridLevel(%d) = %d outside [%d, %d]", n, lvl, minGridLevel, maxGridLevel)
		}
		if lvl > minGridLevel && n>>(2*lvl) < minTaskSites {
			t.Fatalf("autoGridLevel(%d) = %d violates the density guard", n, lvl)
		}
	}
}

// TestAccPeakBoundsAccumulator: the streamed accumulator peak must stay far
// below n — the memory-bound contract — while still covering every site.
func TestAccPeakBoundsAccumulator(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	b := testBounds()
	n := 5000
	sites := randomSites(r, n, b)
	_, st, err := ApproxDominanceMBRs(sites, b, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.AccPeak == 0 {
		t.Fatal("AccPeak not recorded")
	}
	// With ≥16 tasks over uniform sites, one task should accumulate roughly
	// n/16 of the sites plus boundary spill — n/2 is a generous ceiling that
	// still proves per-task flushing (an unflushed sweep would reach ~n).
	if st.AccPeak > n/2 {
		t.Fatalf("AccPeak %d of n=%d: accumulator is not task-bounded", st.AccPeak, n)
	}
}
