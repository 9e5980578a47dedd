package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"molq/internal/geom"
	"molq/internal/voronoi"
)

var testBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))

// makeSet builds an object set with unit weights at random locations.
func makeSet(r *rand.Rand, typeIdx, n int) []Object {
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{
			ID:         i,
			Type:       typeIdx,
			Loc:        geom.Pt(r.Float64()*1000, r.Float64()*1000),
			TypeWeight: 1,
			ObjWeight:  1,
		}
	}
	return objs
}

func basicMOVD(t *testing.T, objs []Object, mode Mode) *MOVD {
	t.Helper()
	sites := make([]geom.Point, len(objs))
	for i, o := range objs {
		sites[i] = o.Loc
	}
	d, err := voronoi.Compute(sites, testBounds)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromVoronoi(d, objs, objs[0].Type, mode)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// movdSignature summarises an MOVD as combination key → total area, the
// equality notion used by the algebra law tests (RRB mode only).
func movdSignature(m *MOVD) map[string]float64 {
	sig := make(map[string]float64, len(m.OVRs))
	for i := range m.OVRs {
		sig[m.OVRs[i].Key()] += m.OVRs[i].Region.Area()
	}
	return sig
}

func signaturesEqual(a, b map[string]float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || math.Abs(va-vb) > tol {
			return false
		}
	}
	return true
}

func TestWeightedDistanceDefinitions(t *testing.T) {
	o := Object{Loc: geom.Pt(3, 4), TypeWeight: 2, ObjWeight: 5}
	w := Weights{}
	// d((0,0),(3,4)) = 5; WD = 5 * 5 * 2 = 50 with multiplicative fns.
	if got := WD(geom.Pt(0, 0), o, w); math.Abs(got-50) > 1e-12 {
		t.Fatalf("WD = %v, want 50", got)
	}
	wAdd := Weights{Type: Additive}
	// ς^o multiplicative: 5*5 = 25; ς^t additive: 25 + 2 = 27.
	if got := WD(geom.Pt(0, 0), o, wAdd); math.Abs(got-27) > 1e-12 {
		t.Fatalf("WD additive = %v, want 27", got)
	}
}

func TestMWGDDecomposes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	sets := [][]Object{makeSet(r, 0, 5), makeSet(r, 1, 4), makeSet(r, 2, 3)}
	w := Weights{}
	q := geom.Pt(400, 600)
	// Brute force over all combinations.
	best := math.Inf(1)
	for _, a := range sets[0] {
		for _, b := range sets[1] {
			for _, c := range sets[2] {
				if v := WGD(q, []Object{a, b, c}, w); v < best {
					best = v
				}
			}
		}
	}
	if got := MWGD(q, sets, w); math.Abs(got-best) > 1e-9 {
		t.Fatalf("MWGD = %v, brute force = %v", got, best)
	}
}

func TestIdentityLaw(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	m := basicMOVD(t, makeSet(r, 0, 12), RRB)
	id := Identity(testBounds, RRB)
	res, _, err := Overlap(nil, 1, nil, m, id)
	if err != nil {
		t.Fatal(err)
	}
	if !signaturesEqual(movdSignature(m), movdSignature(res), 1e-6) {
		t.Fatal("M ⊕ identity != M")
	}
	res2, _, err := Overlap(nil, 1, nil, id, m)
	if err != nil {
		t.Fatal(err)
	}
	if !signaturesEqual(movdSignature(m), movdSignature(res2), 1e-6) {
		t.Fatal("identity ⊕ M != M")
	}
}

func TestIdempotentLaw(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := basicMOVD(t, makeSet(r, 0, 15), RRB)
	res, _, err := Overlap(nil, 1, nil, m, m)
	if err != nil {
		t.Fatal(err)
	}
	if !signaturesEqual(movdSignature(m), movdSignature(res), 1e-6) {
		t.Fatal("M ⊕ M != M (Property 9)")
	}
}

func TestCommutativeLaw(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a := basicMOVD(t, makeSet(r, 0, 10), RRB)
	b := basicMOVD(t, makeSet(r, 1, 13), RRB)
	ab, _, err := Overlap(nil, 1, nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, _, err := Overlap(nil, 1, nil, b, a)
	if err != nil {
		t.Fatal(err)
	}
	if !signaturesEqual(movdSignature(ab), movdSignature(ba), 1e-6) {
		t.Fatal("A ⊕ B != B ⊕ A (Property 10)")
	}
}

func TestAssociativeLaw(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := basicMOVD(t, makeSet(r, 0, 7), RRB)
	b := basicMOVD(t, makeSet(r, 1, 8), RRB)
	c := basicMOVD(t, makeSet(r, 2, 9), RRB)
	ab, _, err := Overlap(nil, 1, nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	abc1, _, err := Overlap(nil, 1, nil, ab, c)
	if err != nil {
		t.Fatal(err)
	}
	bc, _, err := Overlap(nil, 1, nil, b, c)
	if err != nil {
		t.Fatal(err)
	}
	abc2, _, err := Overlap(nil, 1, nil, a, bc)
	if err != nil {
		t.Fatal(err)
	}
	if !signaturesEqual(movdSignature(abc1), movdSignature(abc2), 1e-6) {
		t.Fatal("(A⊕B)⊕C != A⊕(B⊕C) (Property 11)")
	}
}

func TestAbsorptionLaw(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	a := basicMOVD(t, makeSet(r, 0, 9), RRB)
	b := basicMOVD(t, makeSet(r, 1, 11), RRB)
	ab, _, err := Overlap(nil, 1, nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Property 14: MOVD(E_i) ⊕ MOVD(E_j) = MOVD(E_i) when E_i ⊃ E_j.
	res, _, err := Overlap(nil, 1, nil, ab, b)
	if err != nil {
		t.Fatal(err)
	}
	if !signaturesEqual(movdSignature(ab), movdSignature(res), 1e-6) {
		t.Fatal("(A⊕B) ⊕ B != A⊕B (Property 14)")
	}
}

func TestCardinalityProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sizeA, sizeB := 10, 14
	a := basicMOVD(t, makeSet(r, 0, sizeA), RRB)
	b := basicMOVD(t, makeSet(r, 1, sizeB), RRB)
	ab, _, err := Overlap(nil, 1, nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Property 2: |MOVD| ≤ Π|P_i|.
	if ab.Len() > sizeA*sizeB {
		t.Fatalf("|MOVD| = %d exceeds product %d", ab.Len(), sizeA*sizeB)
	}
	// Property 6: |MOVD(E)| ≥ |VD(P_i)|.
	if ab.Len() < a.Len() || ab.Len() < b.Len() {
		t.Fatalf("|MOVD| = %d smaller than an operand (%d, %d)", ab.Len(), a.Len(), b.Len())
	}
}

func TestCoverageProperty(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	a := basicMOVD(t, makeSet(r, 0, 12), RRB)
	b := basicMOVD(t, makeSet(r, 1, 9), RRB)
	c := basicMOVD(t, makeSet(r, 2, 7), RRB)
	m, _, err := Overlap(nil, 1, nil, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	// Property 3: the MOVD covers the whole search space. Check by area and
	// by point stabbing.
	area := 0.0
	for i := range m.OVRs {
		area += m.OVRs[i].Region.Area()
	}
	if rel := math.Abs(area-testBounds.Area()) / testBounds.Area(); rel > 1e-6 {
		t.Fatalf("OVR areas sum to %v of search space (rel err %g)", area, rel)
	}
	for trial := 0; trial < 200; trial++ {
		q := geom.Pt(r.Float64()*1000, r.Float64()*1000)
		found := false
		for i := range m.OVRs {
			if m.OVRs[i].Region.Contains(q) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("point %v not covered by any OVR", q)
		}
	}
}

func TestNearestCombinationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	sets := [][]Object{makeSet(r, 0, 10), makeSet(r, 1, 8), makeSet(r, 2, 12)}
	var basics []*MOVD
	for _, s := range sets {
		basics = append(basics, basicMOVD(t, s, RRB))
	}
	m, _, err := Overlap(nil, 1, nil, basics...)
	if err != nil {
		t.Fatal(err)
	}
	w := Weights{}
	// Property 5: for q in OVR(p1..pn), WGD(q, pois) = MWGD(q, E).
	for trial := 0; trial < 200; trial++ {
		q := geom.Pt(r.Float64()*1000, r.Float64()*1000)
		for i := range m.OVRs {
			if !m.OVRs[i].Region.Contains(q) {
				continue
			}
			got := WGD(q, m.OVRs[i].POIs, w)
			want := MWGD(q, sets, w)
			// Points on OVR boundaries can tie; allow a small slack.
			if got-want > 1e-6*math.Max(1, want) {
				t.Fatalf("OVR combo distance %v > MWGD %v at %v", got, want, q)
			}
			break
		}
	}
}

func TestMBRBIsSupersetOfRRB(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	setA, setB := makeSet(r, 0, 14), makeSet(r, 1, 11)
	rrb, _, err := Overlap(nil, 1, nil, basicMOVD(t, setA, RRB), basicMOVD(t, setB, RRB))
	if err != nil {
		t.Fatal(err)
	}
	mbrb, _, err := Overlap(nil, 1, nil, basicMOVD(t, setA, MBRB), basicMOVD(t, setB, MBRB))
	if err != nil {
		t.Fatal(err)
	}
	if mbrb.Len() < rrb.Len() {
		t.Fatalf("MBRB produced fewer OVRs (%d) than RRB (%d)", mbrb.Len(), rrb.Len())
	}
	mbrbByKey := make(map[string]geom.Rect)
	for i := range mbrb.OVRs {
		mbrbByKey[mbrb.OVRs[i].Key()] = mbrb.OVRs[i].MBR
	}
	for i := range rrb.OVRs {
		k := rrb.OVRs[i].Key()
		box, ok := mbrbByKey[k]
		if !ok {
			t.Fatalf("RRB combination %s missing from MBRB result", k)
		}
		got := rrb.OVRs[i].MBR
		slack := geom.Rect{
			Min: geom.Pt(box.Min.X-1e-6, box.Min.Y-1e-6),
			Max: geom.Pt(box.Max.X+1e-6, box.Max.Y+1e-6),
		}
		if !slack.ContainsRect(got) {
			t.Fatalf("RRB region MBR %v escapes MBRB box %v for %s", got, box, k)
		}
	}
}

func TestOverlapModeMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := basicMOVD(t, makeSet(r, 0, 5), RRB)
	b := basicMOVD(t, makeSet(r, 1, 5), MBRB)
	if _, _, err := Overlap(nil, 1, nil, a, b); err != ErrModeMismatch {
		t.Fatalf("want ErrModeMismatch, got %v", err)
	}
}

func TestPointsManagedMetric(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	objs := makeSet(r, 0, 20)
	rrb := basicMOVD(t, objs, RRB)
	mbrb := basicMOVD(t, objs, MBRB)
	if got := mbrb.PointsManaged(); got != 2*mbrb.Len() {
		t.Fatalf("MBRB points = %d, want %d", got, 2*mbrb.Len())
	}
	if rrb.PointsManaged() <= 2*rrb.Len() {
		t.Fatalf("RRB should manage more than 2 points per convex cell, got %d for %d cells",
			rrb.PointsManaged(), rrb.Len())
	}
}

func TestGroupsDeduplicate(t *testing.T) {
	o1 := Object{ID: 1, Type: 0, Loc: geom.Pt(1, 1)}
	o2 := Object{ID: 2, Type: 1, Loc: geom.Pt(2, 2)}
	m := &MOVD{
		Bounds: testBounds,
		OVRs: []OVR{
			{MBR: testBounds, POIs: []Object{o1, o2}},
			{MBR: testBounds, POIs: []Object{o2, o1}}, // same combo, reordered
		},
	}
	if got := len(m.Groups()); got != 1 {
		t.Fatalf("Groups() = %d combos, want 1", got)
	}
}

// TestQuickAlgebraLaws re-verifies the ⊕ laws on fully randomized inputs
// (sizes and seeds drawn by testing/quick) rather than the fixed seeds of
// the dedicated law tests above.
func TestQuickAlgebraLaws(t *testing.T) {
	f := func(seed int64, na, nb uint8) bool {
		r := rand.New(rand.NewSource(seed))
		a := basicMOVD(t, makeSet(r, 0, int(na%12)+2), RRB)
		b := basicMOVD(t, makeSet(r, 1, int(nb%12)+2), RRB)
		ab, _, err := Overlap(nil, 1, nil, a, b)
		if err != nil {
			return false
		}
		ba, _, err := Overlap(nil, 1, nil, b, a)
		if err != nil {
			return false
		}
		if !signaturesEqual(movdSignature(ab), movdSignature(ba), 1e-6) {
			return false // commutativity
		}
		aa, _, err := Overlap(nil, 1, nil, a, a)
		if err != nil {
			return false
		}
		if !signaturesEqual(movdSignature(a), movdSignature(aa), 1e-6) {
			return false // idempotence
		}
		abb, _, err := Overlap(nil, 1, nil, ab, b)
		if err != nil {
			return false
		}
		return signaturesEqual(movdSignature(ab), movdSignature(abb), 1e-6) // absorption
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCombinationKeyOrderInsensitive(t *testing.T) {
	a := Object{ID: 3, Type: 1}
	b := Object{ID: 7, Type: 0}
	if CombinationKey([]Object{a, b}) != CombinationKey([]Object{b, a}) {
		t.Fatal("combination key depends on order")
	}
}
