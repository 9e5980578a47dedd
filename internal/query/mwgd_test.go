package query

import (
	"math"
	"math/rand"
	"testing"

	"molq/internal/core"
	"molq/internal/geom"
)

// TestMWGDMatchesCoreOracle checks Input.MWGD against core.MWGD, the
// closure-based Eq 3, with the matching weight functions: all
// multiplicative, all additive, and mixed. The two associate the products
// differently (w^t·w^o·d vs ς^t(ς^o(d, w^o), w^t)), so they agree to
// rounding, not bit for bit.
func TestMWGDMatchesCoreOracle(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	for _, kinds := range [][]WeightKind{
		{MultiplicativeObjWeights, MultiplicativeObjWeights, MultiplicativeObjWeights},
		{AdditiveObjWeights, AdditiveObjWeights, AdditiveObjWeights},
		{AdditiveObjWeights, MultiplicativeObjWeights, AdditiveObjWeights},
	} {
		in := additiveInput(r, []int{7, 5, 9})
		in.ObjKinds = kinds
		w := core.Weights{Obj: make([]core.WeightFunc, len(kinds))}
		for ti, k := range kinds {
			if k == AdditiveObjWeights {
				w.Obj[ti] = core.Additive
			}
		}
		for i := 0; i < 50; i++ {
			q := geom.Pt(r.Float64()*1000, r.Float64()*1000)
			got, want := in.MWGD(q), core.MWGD(q, in.Sets, w)
			if math.Abs(got-want) > 1e-12*want {
				t.Fatalf("kinds %v at %v: MWGD %v, core.MWGD %v", kinds, q, got, want)
			}
		}
	}
}
