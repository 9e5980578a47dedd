package molq_test

import (
	"math"
	"testing"

	"molq"
)

func buildCityQuery() *molq.Query {
	q := molq.NewQuery(molq.NewRect(molq.Pt(0, 0), molq.Pt(1000, 1000)))
	for ti, name := range []string{"STM", "CH", "SCH"} {
		pts := molq.GeneratePOIs(name, 20, int64(ti+10), molq.NewRect(molq.Pt(0, 0), molq.Pt(1000, 1000)))
		objs := make([]molq.Object, len(pts))
		for i, p := range pts {
			objs[i] = molq.POI(p, float64(ti+1), 1)
		}
		q.AddType(name, objs...)
	}
	return q
}

// withOptions sets a query's options in place and returns it, so tests can
// build-and-configure in one expression.
func withOptions(q *molq.Query, opts molq.Options) *molq.Query {
	q.SetOptions(opts)
	return q
}

func TestPruningAndWorkersPreserveFacadeResult(t *testing.T) {
	base, err := withOptions(buildCityQuery(), molq.Options{Epsilon: 1e-6}).Solve(molq.RRB)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := withOptions(buildCityQuery(), molq.Options{
		Epsilon:      1e-6,
		Workers:      4,
		PruneOverlap: true,
	}).Solve(molq.RRB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tuned.Cost-base.Cost) > 1e-6*base.Cost {
		t.Fatalf("options changed the optimum: %v vs %v", tuned.Cost, base.Cost)
	}
	if tuned.Stats.OVRs > base.Stats.OVRs {
		t.Fatalf("pruning should not grow the MOVD: %d vs %d", tuned.Stats.OVRs, base.Stats.OVRs)
	}
}

func TestDisableCostBoundFacade(t *testing.T) {
	a, err := withOptions(buildCityQuery(), molq.Options{Epsilon: 1e-6}).Solve(molq.MBRB)
	if err != nil {
		t.Fatal(err)
	}
	b, err := withOptions(buildCityQuery(), molq.Options{Epsilon: 1e-6, DisableCostBound: true}).Solve(molq.MBRB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Cost-b.Cost) > 1e-4*a.Cost {
		t.Fatalf("cost bound changed the optimum: %v vs %v", a.Cost, b.Cost)
	}
	if b.Stats.Pruned != 0 {
		t.Fatalf("disabled bound should prune nothing, pruned %d", b.Stats.Pruned)
	}
}

func TestAdditiveWeightsFacade(t *testing.T) {
	q := molq.NewQuery(molq.NewRect(molq.Pt(0, 0), molq.Pt(100, 100)))
	ti := q.AddType("cafe",
		molq.POI(molq.Pt(10, 10), 1, 30), // heavy queueing penalty
		molq.POI(molq.Pt(90, 90), 1, 1),
	)
	q.SetAdditiveWeights(ti)
	res, err := q.Solve(molq.MBRB)
	if err != nil {
		t.Fatal(err)
	}
	// The low-penalty cafe wins despite symmetry.
	if res.Location != molq.Pt(90, 90) {
		t.Fatalf("additive optimum at %v", res.Location)
	}
	if math.Abs(res.Cost-1) > 1e-9 {
		t.Fatalf("cost %v, want the residual penalty 1", res.Cost)
	}
	if got := q.MWGD(molq.Pt(90, 90)); math.Abs(got-1) > 1e-9 {
		t.Fatalf("additive MWGD = %v", got)
	}
}

func TestTopKFacade(t *testing.T) {
	q := withOptions(buildCityQuery(), molq.Options{Epsilon: 1e-8})
	alts, err := q.TopK(molq.RRB, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(alts) != 4 {
		t.Fatalf("alternatives: %d", len(alts))
	}
	best, err := withOptions(buildCityQuery(), molq.Options{Epsilon: 1e-8}).Solve(molq.RRB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alts[0].Cost-best.Cost) > 1e-6*best.Cost {
		t.Fatalf("top-1 %v vs solve %v", alts[0].Cost, best.Cost)
	}
	for i := 1; i < len(alts); i++ {
		if alts[i].Cost < alts[i-1].Cost {
			t.Fatal("alternatives not ascending")
		}
	}
	if _, err := q.TopK(molq.SSC, 2); err == nil {
		t.Fatal("SSC TopK should fail")
	}
}

func TestEngineFacade(t *testing.T) {
	q := withOptions(buildCityQuery(), molq.Options{Epsilon: 1e-6})
	eng, err := q.Prepare(molq.RRB)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Combinations() == 0 {
		t.Fatal("no combinations prepared")
	}
	res, err := eng.Solve([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := withOptions(buildCityQuery(), molq.Options{Epsilon: 1e-6}).Solve(molq.RRB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-cold.Cost) > 1e-6*cold.Cost {
		t.Fatalf("engine %v vs cold %v", res.Cost, cold.Cost)
	}
	if _, err := eng.Solve([]float64{1}); err == nil {
		t.Fatal("wrong weight count should fail")
	}
}

// TestMWGDSkipsEmptyType: a type registered with no objects contributes
// nothing to the objective, so MWGD stays finite and equals the MWGD of the
// query without that type.
func TestMWGDSkipsEmptyType(t *testing.T) {
	bounds := molq.NewRect(molq.Pt(0, 0), molq.Pt(100, 100))
	full := molq.NewQuery(bounds)
	full.AddType("cafe", molq.POI(molq.Pt(10, 10), 2, 1), molq.POI(molq.Pt(90, 20), 1, 3))
	full.AddType("empty")
	penalty := full.AddType("bank", molq.POI(molq.Pt(50, 80), 1, 4))
	full.SetAdditiveWeights(penalty)

	ref := molq.NewQuery(bounds)
	ref.AddType("cafe", molq.POI(molq.Pt(10, 10), 2, 1), molq.POI(molq.Pt(90, 20), 1, 3))
	ref.SetAdditiveWeights(ref.AddType("bank", molq.POI(molq.Pt(50, 80), 1, 4)))

	at := molq.Pt(40, 30)
	got := full.MWGD(at)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("MWGD with an empty type = %v, want finite", got)
	}
	if want := ref.MWGD(at); got != want {
		t.Fatalf("MWGD with an empty type = %v, want %v (the empty type skipped)", got, want)
	}
}
