package fermat

import (
	"context"
	"math/rand"
	"testing"

	"molq/internal/geom"
)

// flatten packs slice-of-structs groups and their per-group offsets (nil
// means none) into one flat problem in the form for points that carry their
// own weights: Typ all 0, Scale = {1}, each group's offset on its first
// point's OffBase. It caches pair distances the way the query layer does.
func flatten(groups []Group, offsets []float64) FlatProblem {
	fg := &FlatGroups{Starts: make([]int32, 0, len(groups)+1), PairDist: make([]float64, len(groups))}
	if offsets != nil {
		fg.OffBase = []float64{}
	}
	for gi, g := range groups {
		fg.Starts = append(fg.Starts, int32(len(fg.X)))
		for i, p := range g {
			fg.X = append(fg.X, p.P.X)
			fg.Y = append(fg.Y, p.P.Y)
			fg.Base = append(fg.Base, p.W)
			if offsets != nil {
				off := 0.0
				if i == 0 {
					off = offsets[gi]
				}
				fg.OffBase = append(fg.OffBase, off)
			}
		}
		if len(g) >= 2 {
			fg.PairDist[gi] = g[0].P.Dist(g[1].P)
		}
	}
	fg.Starts = append(fg.Starts, int32(len(fg.X)))
	fg.Typ = make([]int32, len(fg.X))
	return FlatProblem{Geom: fg, Scale: []float64{1}}
}

// shortOffBase returns groups as a flat problem whose OffBase is one entry
// short of the point count, which every driver must reject.
func shortOffBase(groups []Group) []FlatProblem {
	p := flatten(groups, nil)
	p.Geom.OffBase = make([]float64, len(p.Geom.X)-1)
	return []FlatProblem{p}
}

// solveFlat runs the batch driver on one problem.
func solveFlat(groups []Group, offsets []float64, opt Options, workers int) (BatchResult, error) {
	out, err := CostBoundMultiBatchFlatCtx(context.Background(), []FlatProblem{flatten(groups, offsets)}, opt, workers)
	if err != nil {
		return BatchResult{}, err
	}
	return out[0], nil
}

// stream is the reference scan: every group offered in index order to a
// Streamer, with (useBound) or without Algorithm 5 pruning.
func stream(groups []Group, offsets []float64, opt Options, useBound bool) (BatchResult, error) {
	s := NewStreamer(opt, useBound)
	for gi, g := range groups {
		off := 0.0
		if offsets != nil {
			off = offsets[gi]
		}
		if err := s.Offer(g, off); err != nil {
			return BatchResult{}, err
		}
	}
	return s.Result()
}

// sliceProblem is one weight vector's batch in slice-of-structs form, the
// input of the Streamer reference.
type sliceProblem struct {
	groups  []Group
	offsets []float64
}

// randomFlatInstance builds one multi-batch instance in both layouts: nv
// weight-vector problems over ng shared groups whose sizes run from empty
// through the 1/2/3-point fast paths to iterative sizes.
func randomFlatInstance(r *rand.Rand, ng, nv int, withOffsets bool) ([]sliceProblem, []FlatProblem) {
	sizes := make([]int, ng)
	for i := range sizes {
		switch r.Intn(6) {
		case 0:
			sizes[i] = 1
		case 1:
			sizes[i] = 2
		case 2:
			sizes[i] = 3
		default:
			sizes[i] = 4 + r.Intn(8)
		}
	}
	// One group in each instance is empty: the driver must skip it.
	sizes[r.Intn(ng)] = 0
	base := make([][]geom.Point, ng)
	for gi, n := range sizes {
		base[gi] = make([]geom.Point, n)
		for k := range base[gi] {
			base[gi][k] = geom.Pt(r.Float64()*100, r.Float64()*100)
		}
	}

	slices := make([]sliceProblem, nv)
	flat := make([]FlatProblem, nv)
	var fg *FlatGroups
	for vi := range slices {
		groups := make([]Group, ng)
		var offsets []float64
		if withOffsets {
			offsets = make([]float64, ng)
		}
		for gi, pts := range base {
			g := make(Group, len(pts))
			for k, p := range pts {
				g[k] = WeightedPoint{P: p, W: 0.1 + r.Float64()*3}
			}
			groups[gi] = g
			if withOffsets {
				offsets[gi] = r.Float64() * 5
			}
		}
		slices[vi] = sliceProblem{groups, offsets}
		flat[vi] = flatten(groups, offsets)
		// Every vector shares the coordinates and pair distances, as in
		// Engine.QueryBatch; its weights are its own Base and OffBase.
		if fg == nil {
			fg = flat[vi].Geom
		}
		own := *fg
		own.Base, own.OffBase = flat[vi].Geom.Base, flat[vi].Geom.OffBase
		flat[vi].Geom = &own
	}
	return slices, flat
}

func checkBatchesEqual(t *testing.T, tag string, want, got []BatchResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", tag, len(got), len(want))
	}
	for vi := range want {
		w, g := want[vi], got[vi]
		if g.GroupIndex != w.GroupIndex {
			t.Fatalf("%s vector %d: winner group %d, want %d", tag, vi, g.GroupIndex, w.GroupIndex)
		}
		if g.Cost != w.Cost || g.Loc != w.Loc {
			t.Fatalf("%s vector %d: result (%v, %v), want (%v, %v)", tag, vi, g.Loc, g.Cost, w.Loc, w.Cost)
		}
	}
}

// streamAll solves every problem of an instance with the Streamer reference.
func streamAll(t *testing.T, slices []sliceProblem) []BatchResult {
	t.Helper()
	want := make([]BatchResult, len(slices))
	for vi, sp := range slices {
		res, err := stream(sp.groups, sp.offsets, Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		want[vi] = res
	}
	return want
}

// TestFlatMultiBatchMatchesSlices cross-checks the flat multi-batch driver
// against in-order Streamer scans of the same problems in slice-of-structs
// form on random instances: same winners, same costs, bit for bit — both
// sequential (warm-started) and parallel, with and without offsets. The
// instances hold tied 1-point groups, so this also pins the tie rule.
// Solved alone and sequentially, a problem is scanned in the Streamer's
// order, so even the work counters must agree.
func TestFlatMultiBatchMatchesSlices(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ctx := context.Background()
	for trial := 0; trial < 30; trial++ {
		slices, flat := randomFlatInstance(r, 3+r.Intn(20), 1+r.Intn(4), trial%2 == 1)
		want := streamAll(t, slices)
		for _, workers := range []int{1, 4} {
			got, err := CostBoundMultiBatchFlatCtx(ctx, flat, Options{}, workers)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			checkBatchesEqual(t, "multi", want, got)
		}
		for vi := range flat {
			alone, err := CostBoundMultiBatchFlatCtx(ctx, flat[vi:vi+1], Options{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if alone[0].Stats != want[vi].Stats {
				t.Fatalf("trial %d vector %d: flat stats %+v != %+v", trial, vi, alone[0].Stats, want[vi].Stats)
			}
		}
	}
}

// TestFlatBatchMatchesParallel checks that a single problem returns the
// Streamer's answer at every worker count.
func TestFlatBatchMatchesParallel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		slices, flat := randomFlatInstance(r, 4+r.Intn(16), 1, trial%2 == 0)
		want := streamAll(t, slices)
		for _, workers := range []int{1, 2, 4} {
			got, err := CostBoundMultiBatchFlatCtx(ctx, flat, Options{}, workers)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			checkBatchesEqual(t, "single", want, got)
		}
	}
}

// TestFlatValidation pins the error contract of the flat driver.
func TestFlatValidation(t *testing.T) {
	ctx := context.Background()
	ok := FlatProblem{
		Geom: &FlatGroups{
			X: []float64{0, 1}, Y: []float64{0, 0}, Starts: []int32{0, 2},
			Typ: []int32{0, 0}, Base: []float64{1, 2},
		},
		Scale: []float64{1},
	}
	if _, err := CostBoundMultiBatchFlatCtx(ctx, []FlatProblem{ok}, Options{}, 1); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	// with returns ok with its geometry changed by mod.
	with := func(mod func(*FlatGroups)) FlatProblem {
		g := *ok.Geom
		mod(&g)
		return FlatProblem{Geom: &g, Scale: ok.Scale}
	}
	cases := []struct {
		name string
		p    FlatProblem
		want error
	}{
		{"nil geom", FlatProblem{}, ErrNoPoints},
		{"empty geom", FlatProblem{Geom: &FlatGroups{Starts: []int32{0}}}, ErrNoPoints},
		{"types length", with(func(g *FlatGroups) { g.Typ = []int32{0} }), ErrBadFlat},
		{"base length", with(func(g *FlatGroups) { g.Base = []float64{1, 2, 3} }), ErrBadFlat},
		{"empty scale", FlatProblem{Geom: ok.Geom}, ErrBadFlat},
		{"offset factors length", with(func(g *FlatGroups) { g.OffBase = []float64{0} }), ErrBadOffsets},
		{"pairdist length", with(func(g *FlatGroups) { g.PairDist = []float64{1, 1} }), ErrBadPairDist},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			if _, err := CostBoundMultiBatchFlatCtx(ctx, []FlatProblem{ok, tc.p}, Options{}, workers); err != tc.want {
				t.Errorf("%s (workers %d): err %v, want %v", tc.name, workers, err, tc.want)
			}
		}
	}
}

// TestScaleFoldMatchesFoldedWeights checks the per-type form against the
// same weights folded per point: a geometry whose points carry types 0–2,
// factors and offset factors, scaled by a per-type vector, must answer bit
// for bit — winner, cost and work counters — as the problem whose Base and
// OffBase hold Scale[Typ[k]]·Base[k] and Scale[Typ[k]]·OffBase[k] under
// Typ 0 and Scale = {1}.
func TestScaleFoldMatchesFoldedWeights(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		_, flat := randomFlatInstance(r, 4+r.Intn(30), 1, false)
		typed := *flat[0].Geom
		n := len(typed.X)
		typed.Typ, typed.Base, typed.OffBase = make([]int32, n), make([]float64, n), make([]float64, n)
		for k := range typed.Typ {
			typed.Typ[k] = int32(r.Intn(3))
			typed.Base[k] = 0.1 + 3*r.Float64()
			if typed.Typ[k] == 2 {
				typed.OffBase[k] = 2 * r.Float64()
			}
		}
		scale := []float64{0.5 + r.Float64(), 0.5 + r.Float64(), 0.5 + r.Float64()}
		folded := typed
		folded.Typ, folded.Base, folded.OffBase = make([]int32, n), make([]float64, n), make([]float64, n)
		for k := range folded.Base {
			folded.Base[k] = scale[typed.Typ[k]] * typed.Base[k]
			folded.OffBase[k] = scale[typed.Typ[k]] * typed.OffBase[k]
		}
		for _, workers := range []int{1, 4} {
			want, err := CostBoundMultiBatchFlatCtx(ctx, []FlatProblem{{Geom: &folded, Scale: []float64{1}}}, Options{}, workers)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CostBoundMultiBatchFlatCtx(ctx, []FlatProblem{{Geom: &typed, Scale: scale}}, Options{}, workers)
			if err != nil {
				t.Fatal(err)
			}
			checkBatchesEqual(t, "scaled", want, got)
			if workers == 1 && got[0].Stats != want[0].Stats {
				t.Fatalf("trial %d: scaled stats %+v, folded %+v", trial, got[0].Stats, want[0].Stats)
			}
		}
	}
}

// TestFlatCancellation checks a canceled context stops the driver.
func TestFlatCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	_, flat := randomFlatInstance(r, 64, 4, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CostBoundMultiBatchFlatCtx(ctx, flat, Options{}, 1); err != context.Canceled {
		t.Fatalf("sequential: err %v, want context.Canceled", err)
	}
	if _, err := CostBoundMultiBatchFlatCtx(ctx, flat, Options{}, 4); err != context.Canceled {
		t.Fatalf("parallel: err %v, want context.Canceled", err)
	}
	if _, err := CostBoundMultiBatchFlatCtx(ctx, flat[:1], Options{}, 4); err != context.Canceled {
		t.Fatalf("single: err %v, want context.Canceled", err)
	}
}

// TestFlatTwoPointExactness pins the flat 2-point fast path against solve2 on
// the same data: identical location and cost without gathering.
func TestFlatTwoPointExactness(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		a, b := geom.Pt(r.Float64()*10, r.Float64()*10), geom.Pt(r.Float64()*10, r.Float64()*10)
		wa, wb := 0.1+r.Float64(), 0.1+r.Float64()
		fg := &FlatGroups{X: []float64{a.X, b.X}, Y: []float64{a.Y, b.Y}, Starts: []int32{0, 2}, Typ: []int32{0, 0}, Base: []float64{wa, wb}}
		if i%2 == 0 {
			fg.PairDist = []float64{a.Dist(b)}
		}
		got, err := CostBoundMultiBatchFlatCtx(context.Background(), []FlatProblem{{Geom: fg, Scale: []float64{1}}}, Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := solve2([]WeightedPoint{{P: a, W: wa}, {P: b, W: wb}})
		if got[0].Loc != want.Loc || got[0].Cost != want.Cost {
			t.Fatalf("iter %d: flat 2-point (%v, %v) != solve2 (%v, %v)", i, got[0].Loc, got[0].Cost, want.Loc, want.Cost)
		}
	}
}
