package query

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"molq/internal/core"
	"molq/internal/geom"
)

var testBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))

func randomInput(r *rand.Rand, sizes []int, randomTypeWeights bool) Input {
	sets := make([][]core.Object, len(sizes))
	for ti, n := range sizes {
		tw := 1.0
		if randomTypeWeights {
			tw = 0.5 + 9.5*r.Float64() // type weights in (0, 10] as in Sec 6.1
		}
		set := make([]core.Object, n)
		for i := range set {
			set[i] = core.Object{
				ID:         i,
				Type:       ti,
				Loc:        geom.Pt(r.Float64()*1000, r.Float64()*1000),
				TypeWeight: tw,
				ObjWeight:  1,
			}
		}
		sets[ti] = set
	}
	return Input{Sets: sets, Bounds: testBounds, Epsilon: 1e-6}
}

func TestValidation(t *testing.T) {
	if _, err := Solve(Input{}, SSC); !errors.Is(err, ErrNoSets) {
		t.Fatalf("want ErrNoSets, got %v", err)
	}
	in := Input{Sets: [][]core.Object{{}}, Bounds: testBounds}
	if _, err := Solve(in, SSC); !errors.Is(err, ErrEmptySet) {
		t.Fatalf("want ErrEmptySet, got %v", err)
	}
	in = Input{
		Sets:   [][]core.Object{{{ID: 0, Type: 0, TypeWeight: 0, ObjWeight: 1}}},
		Bounds: testBounds,
	}
	if _, err := Solve(in, SSC); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("want ErrBadWeight, got %v", err)
	}
	in = randomInput(rand.New(rand.NewSource(1)), []int{3}, false)
	if _, err := Solve(in, Method(99)); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("want ErrUnknownMethod, got %v", err)
	}
}

// TestMethodsAgree is the end-to-end theorem of Sec 5.3: SSC, RRB and MBRB
// must return locations of (near) identical MWGD cost.
func TestMethodsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 8; trial++ {
		sizes := []int{2 + r.Intn(5), 2 + r.Intn(5), 2 + r.Intn(5)}
		in := randomInput(r, sizes, true)
		ssc, err := Solve(in, SSC)
		if err != nil {
			t.Fatalf("trial %d SSC: %v", trial, err)
		}
		rrb, err := Solve(in, RRB)
		if err != nil {
			t.Fatalf("trial %d RRB: %v", trial, err)
		}
		mbrb, err := Solve(in, MBRB)
		if err != nil {
			t.Fatalf("trial %d MBRB: %v", trial, err)
		}
		tol := 1e-3 * math.Max(1, ssc.Cost)
		if math.Abs(rrb.Cost-ssc.Cost) > tol {
			t.Fatalf("trial %d sizes %v: RRB cost %v vs SSC %v", trial, sizes, rrb.Cost, ssc.Cost)
		}
		if math.Abs(mbrb.Cost-ssc.Cost) > tol {
			t.Fatalf("trial %d sizes %v: MBRB cost %v vs SSC %v", trial, sizes, mbrb.Cost, ssc.Cost)
		}
		// The reported cost must equal the MWGD of the reported location
		// (multiplicative folding of w^t · w^o, matching core.MWGD with
		// default weight functions).
		for _, res := range []Result{ssc, rrb, mbrb} {
			mwgd := weightedMWGD(res.Loc, in.Sets)
			if diff := math.Abs(mwgd - core.MWGD(res.Loc, in.Sets, core.Weights{})); diff > 1e-9 {
				t.Fatalf("MWGD helpers disagree by %v", diff)
			}
			if math.Abs(mwgd-res.Cost) > tol {
				t.Fatalf("trial %d %s: reported cost %v but MWGD(loc) = %v",
					trial, res.Method, res.Cost, mwgd)
			}
		}
	}
}

// weightedMWGD evaluates MWGD with the multiplicative folding the optimizer
// uses (w^t · w^o · d).
func weightedMWGD(q geom.Point, sets [][]core.Object) float64 {
	total := 0.0
	for _, set := range sets {
		best := math.Inf(1)
		for _, o := range set {
			if v := o.TypeWeight * o.ObjWeight * q.Dist(o.Loc); v < best {
				best = v
			}
		}
		total += best
	}
	return total
}

func TestTwoTypeQuery(t *testing.T) {
	// Two types, one object each: the optimum sits at the heavier object.
	in := Input{
		Sets: [][]core.Object{
			{{ID: 0, Type: 0, Loc: geom.Pt(100, 100), TypeWeight: 5, ObjWeight: 1}},
			{{ID: 0, Type: 1, Loc: geom.Pt(900, 900), TypeWeight: 1, ObjWeight: 1}},
		},
		Bounds: testBounds,
	}
	for _, m := range []Method{SSC, RRB, MBRB} {
		res, err := Solve(in, m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Loc.Dist(geom.Pt(100, 100)) > 1e-9 {
			t.Fatalf("%s: optimum %v, want (100,100)", m, res.Loc)
		}
	}
}

func TestSingleTypeQuery(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	in := randomInput(r, []int{6}, false)
	for _, m := range []Method{SSC, RRB, MBRB} {
		res, err := Solve(in, m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Cost > 1e-9 {
			t.Fatalf("%s: single-type optimum should have zero cost, got %v", m, res.Cost)
		}
	}
}

func TestFourTypesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	in := randomInput(r, []int{3, 3, 3, 3}, true)
	in.Epsilon = 1e-3 // the paper's four-type setting (approximate results)
	ssc, err := Solve(in, SSC)
	if err != nil {
		t.Fatal(err)
	}
	rrb, err := Solve(in, RRB)
	if err != nil {
		t.Fatal(err)
	}
	mbrb, err := Solve(in, MBRB)
	if err != nil {
		t.Fatal(err)
	}
	tol := 5e-3 * ssc.Cost
	if math.Abs(rrb.Cost-ssc.Cost) > tol || math.Abs(mbrb.Cost-ssc.Cost) > tol {
		t.Fatalf("costs disagree: SSC %v RRB %v MBRB %v", ssc.Cost, rrb.Cost, mbrb.Cost)
	}
}

// TestRRBRejectsWeightedObjectsWhenExactForced: WeightedEpsilon < 0 pins the
// exact construction, which has no polygonal RRB realization — only then is
// a weighted RRB solve rejected. The default (auto) mode answers via the
// approximate weighted cell path instead.
func TestRRBRejectsWeightedObjectsWhenExactForced(t *testing.T) {
	in := Input{
		Sets: [][]core.Object{
			{
				{ID: 0, Type: 0, Loc: geom.Pt(100, 100), TypeWeight: 1, ObjWeight: 1},
				{ID: 1, Type: 0, Loc: geom.Pt(200, 200), TypeWeight: 1, ObjWeight: 2},
			},
		},
		Bounds:          testBounds,
		WeightedEpsilon: -1,
	}
	if _, err := Solve(in, RRB); !errors.Is(err, ErrWeightedRRB) {
		t.Fatalf("want ErrWeightedRRB, got %v", err)
	}
	in.WeightedEpsilon = 0
	if _, err := Solve(in, RRB); err != nil {
		t.Fatalf("auto weighted RRB should solve, got %v", err)
	}
}

// TestWeightedObjectsViaRRBMatchesSSC: the approximate weighted RRB path —
// refined cells clipped into rectangular OVR regions — must find the SSC
// optimum: conservativeness guarantees the optimal combination survives the
// overlap, and no false-positive combination can cost less than the optimum.
func TestWeightedObjectsViaRRBMatchesSSC(t *testing.T) {
	r := rand.New(rand.NewSource(919))
	for trial := 0; trial < 5; trial++ {
		sets := make([][]core.Object, 2)
		for ti := range sets {
			n := 3 + r.Intn(3)
			set := make([]core.Object, n)
			for i := range set {
				set[i] = core.Object{
					ID:         i,
					Type:       ti,
					Loc:        geom.Pt(r.Float64()*1000, r.Float64()*1000),
					TypeWeight: 1 + 4*r.Float64(),
					ObjWeight:  0.5 + 2*r.Float64(),
				}
			}
			sets[ti] = set
		}
		in := Input{Sets: sets, Bounds: testBounds, Epsilon: 1e-6}
		ssc, err := Solve(in, SSC)
		if err != nil {
			t.Fatal(err)
		}
		for _, weps := range []float64{0, 0.05, 0.3} {
			in.WeightedEpsilon = weps
			rrb, err := Solve(in, RRB)
			if err != nil {
				t.Fatalf("trial %d weps=%g: %v", trial, weps, err)
			}
			if math.Abs(rrb.Cost-ssc.Cost) > 1e-3*math.Max(1, ssc.Cost) {
				t.Fatalf("trial %d weps=%g: weighted RRB cost %v vs SSC %v", trial, weps, rrb.Cost, ssc.Cost)
			}
		}
	}
}

func TestWeightedObjectsViaMBRBMatchesSSC(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	for trial := 0; trial < 5; trial++ {
		sets := make([][]core.Object, 2)
		for ti := range sets {
			n := 3 + r.Intn(3)
			set := make([]core.Object, n)
			for i := range set {
				set[i] = core.Object{
					ID:         i,
					Type:       ti,
					Loc:        geom.Pt(r.Float64()*1000, r.Float64()*1000),
					TypeWeight: 1 + 4*r.Float64(),
					ObjWeight:  0.5 + 2*r.Float64(),
				}
			}
			sets[ti] = set
		}
		in := Input{Sets: sets, Bounds: testBounds, Epsilon: 1e-6}
		ssc, err := Solve(in, SSC)
		if err != nil {
			t.Fatal(err)
		}
		mbrb, err := Solve(in, MBRB)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mbrb.Cost-ssc.Cost) > 1e-3*math.Max(1, ssc.Cost) {
			t.Fatalf("trial %d: weighted MBRB cost %v vs SSC %v", trial, mbrb.Cost, ssc.Cost)
		}
	}
}

func TestCostBoundReducesWork(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	in := randomInput(r, []int{6, 6, 6}, true)
	withCB, err := Solve(in, SSC)
	if err != nil {
		t.Fatal(err)
	}
	in.DisableCostBound = true
	without, err := Solve(in, SSC)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(withCB.Cost-without.Cost) > 1e-3*without.Cost {
		t.Fatalf("cost bound changed the answer: %v vs %v", withCB.Cost, without.Cost)
	}
	workWith := withCB.Stats.Fermat.TotalIters
	workWithout := without.Stats.Fermat.TotalIters
	if workWith >= workWithout {
		t.Fatalf("cost bound did not reduce iterations: %d vs %d", workWith, workWithout)
	}
}

func TestStatsPopulated(t *testing.T) {
	r := rand.New(rand.NewSource(505))
	in := randomInput(r, []int{5, 5, 5}, false)
	// A cached overlap would skip the sweep and report no overlap stats.
	in.DisableDiagramCache = true
	res, err := Solve(in, RRB)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.OVRs == 0 || st.Groups == 0 || st.PointsManaged == 0 {
		t.Fatalf("missing stats: %+v", st)
	}
	if st.OVRs < 5 {
		t.Fatalf("three 5-object diagrams should yield ≥5 OVRs, got %d", st.OVRs)
	}
	if st.Overlap.OutputOVRs == 0 || st.Overlap.Events == 0 {
		t.Fatalf("overlap stats not accumulated: %+v", st.Overlap)
	}
}
