package query

import (
	"math"
	"math/rand"
	"testing"

	"molq/internal/core"
	"molq/internal/geom"
)

func TestEngineMatchesColdSolve(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	in := randomInput(r, []int{8, 10, 6}, false) // unit type weights as placeholders
	for _, method := range []Method{RRB, MBRB} {
		eng, err := NewEngine(in, method)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		for trial := 0; trial < 5; trial++ {
			weights := []float64{
				0.5 + 9*r.Float64(),
				0.5 + 9*r.Float64(),
				0.5 + 9*r.Float64(),
			}
			got, err := eng.Query(weights)
			if err != nil {
				t.Fatal(err)
			}
			// Cold solve with the weights written onto the objects.
			cold := in
			cold.Sets = make([][]core.Object, len(in.Sets))
			for ti, set := range in.Sets {
				ns := make([]core.Object, len(set))
				copy(ns, set)
				for i := range ns {
					ns[i].TypeWeight = weights[ti]
				}
				cold.Sets[ti] = ns
			}
			want, err := Solve(cold, method)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(got.Cost-want.Cost) / want.Cost; rel > 1e-6 {
				t.Fatalf("%v trial %d: engine %v vs cold %v", method, trial, got.Cost, want.Cost)
			}
			if mwgd := eng.MWGDAt(got.Loc, weights); math.Abs(mwgd-got.Cost) > 1e-6*got.Cost {
				t.Fatalf("%v: cost %v but MWGDAt %v", method, got.Cost, mwgd)
			}
		}
	}
}

func TestEngineAdditive(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	in := additiveInput(r, []int{5, 5})
	eng, err := NewEngine(in, MBRB)
	if err != nil {
		t.Fatal(err)
	}
	weights := []float64{2, 3}
	got, err := eng.Query(weights)
	if err != nil {
		t.Fatal(err)
	}
	cold := in
	cold.Sets = make([][]core.Object, len(in.Sets))
	for ti, set := range in.Sets {
		ns := make([]core.Object, len(set))
		copy(ns, set)
		for i := range ns {
			ns[i].TypeWeight = weights[ti]
		}
		cold.Sets[ti] = ns
	}
	want, err := Solve(cold, MBRB)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got.Cost-want.Cost) / want.Cost; rel > 1e-6 {
		t.Fatalf("additive engine %v vs cold %v", got.Cost, want.Cost)
	}
}

func TestEngineValidation(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	in := randomInput(r, []int{4, 4}, false)
	if _, err := NewEngine(in, SSC); err == nil {
		t.Fatal("SSC engine should be rejected")
	}
	eng, err := NewEngine(in, RRB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query([]float64{1}); err == nil {
		t.Fatal("wrong weight count should fail")
	}
	if _, err := eng.Query([]float64{1, 0}); err == nil {
		t.Fatal("non-positive weight should fail")
	}
	if eng.OVRs() == 0 || eng.Combinations() == 0 || eng.PrepTime() <= 0 {
		t.Fatalf("engine stats empty: OVRs=%d combos=%d", eng.OVRs(), eng.Combinations())
	}
}

func TestEngineReuseIsCheaper(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	in := randomInput(r, []int{40, 40, 40}, false)
	eng, err := NewEngine(in, RRB)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// The per-query optimizer time must be well under the preparation time
	// on an instance of this size.
	if res.Stats.OptimizeTime > eng.PrepTime() {
		t.Fatalf("query (%v) not cheaper than prepare (%v)", res.Stats.OptimizeTime, eng.PrepTime())
	}
}

// MWGDAt scores an arbitrary candidate location under the given type
// weights by a linear scan of the current sets: the tests' reference for an
// engine answer's cost.
func (e *Engine) MWGDAt(q geom.Point, typeWeights []float64) float64 {
	st := e.state.Load()
	total := 0.0
	for ti, set := range st.sets {
		additive := e.in.kind(ti) == AdditiveObjWeights
		wt := 1.0
		if ti < len(typeWeights) {
			wt = typeWeights[ti]
		}
		best := -1.0
		for _, o := range set {
			var v float64
			if additive {
				v = wt * (q.Dist(o.Loc) + o.ObjWeight)
			} else {
				v = wt * o.ObjWeight * q.Dist(o.Loc)
			}
			if best < 0 || v < best {
				best = v
			}
		}
		if best >= 0 {
			total += best
		}
	}
	return total
}
