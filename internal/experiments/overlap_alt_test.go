package experiments

import (
	"math/rand"
	"testing"

	"molq/internal/core"
	"molq/internal/dataset"
	"molq/internal/geom"
	"molq/internal/voronoi"
)

var oracleBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))

// oracleSet builds an object set with unit weights at random locations.
func oracleSet(r *rand.Rand, typeIdx, n int) []core.Object {
	objs := make([]core.Object, n)
	for i := range objs {
		objs[i] = core.Object{
			ID:         i,
			Type:       typeIdx,
			Loc:        geom.Pt(r.Float64()*1000, r.Float64()*1000),
			TypeWeight: 1,
			ObjWeight:  1,
		}
	}
	return objs
}

func oracleBasic(t *testing.T, objs []core.Object, mode core.Mode) *core.MOVD {
	t.Helper()
	sites := make([]geom.Point, len(objs))
	for i, o := range objs {
		sites[i] = o.Loc
	}
	d, err := voronoi.Compute(sites, oracleBounds)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.FromVoronoi(d, objs, objs[0].Type, mode)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestOverlapVariantsAgree cross-checks the three candidate-detection
// strategies: plane sweep, naive pair scan, and R-tree probing must produce
// identical OVR multisets (same combination → same total area/boxes).
func TestOverlapVariantsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, mode := range []core.Mode{core.RRB, core.MBRB} {
		for trial := 0; trial < 4; trial++ {
			a := oracleBasic(t, oracleSet(r, 0, 8+r.Intn(20)), mode)
			b := oracleBasic(t, oracleSet(r, 1, 8+r.Intn(20)), mode)
			sweep, sweepStats, err := core.Overlap(nil, 1, nil, a, b)
			if err != nil {
				t.Fatal(err)
			}
			naive, naiveStats, err := OverlapNaive(a, b)
			if err != nil {
				t.Fatal(err)
			}
			rt, rtStats, err := OverlapRTree(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if naive.Len() != sweep.Len() || rt.Len() != sweep.Len() {
				t.Fatalf("mode %v trial %d: OVR counts differ sweep=%d naive=%d rtree=%d",
					mode, trial, sweep.Len(), naive.Len(), rt.Len())
			}
			sig := movdBoxSignature(sweep)
			if !boxSignaturesEqual(sig, movdBoxSignature(naive)) {
				t.Fatalf("mode %v trial %d: naive result differs", mode, trial)
			}
			if !boxSignaturesEqual(sig, movdBoxSignature(rt)) {
				t.Fatalf("mode %v trial %d: rtree result differs", mode, trial)
			}
			// The naive scan must consider at least as many candidate pairs
			// as the filtered strategies.
			if naiveStats.CandidatePairs < sweepStats.CandidatePairs ||
				naiveStats.CandidatePairs < rtStats.CandidatePairs {
				t.Fatalf("mode %v: naive pairs %d below sweep %d / rtree %d",
					mode, naiveStats.CandidatePairs, sweepStats.CandidatePairs, rtStats.CandidatePairs)
			}
		}
	}
}

// movdBoxSignature maps combination key → summed MBR extents, an
// order-insensitive equality proxy that works for both modes.
func movdBoxSignature(m *core.MOVD) map[string][4]float64 {
	sig := make(map[string][4]float64, len(m.OVRs))
	for i := range m.OVRs {
		k := m.OVRs[i].Key()
		s := sig[k]
		b := m.OVRs[i].MBR
		s[0] += b.Min.X
		s[1] += b.Min.Y
		s[2] += b.Max.X
		s[3] += b.Max.Y
		sig[k] = s
	}
	return sig
}

func boxSignaturesEqual(a, b map[string][4]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			return false
		}
		for i := range va {
			d := va[i] - vb[i]
			if d < -1e-6 || d > 1e-6 {
				return false
			}
		}
	}
	return true
}

func TestOverlapAltModeMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	a := oracleBasic(t, oracleSet(r, 0, 5), core.RRB)
	b := oracleBasic(t, oracleSet(r, 1, 5), core.MBRB)
	if _, _, err := OverlapNaive(a, b); err != core.ErrModeMismatch {
		t.Fatalf("naive: want ErrModeMismatch, got %v", err)
	}
	if _, _, err := OverlapRTree(a, b); err != core.ErrModeMismatch {
		t.Fatalf("rtree: want ErrModeMismatch, got %v", err)
	}
}

func BenchmarkOverlapCandidateDetection(b *testing.B) {
	x, err := buildBasic(dataset.STM, 4000, 0, 1, core.RRB)
	if err != nil {
		b.Fatal(err)
	}
	y, err := buildBasic(dataset.CH, 4000, 1, 2, core.RRB)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Overlap(nil, 1, nil, x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := OverlapRTree(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := OverlapNaive(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}
