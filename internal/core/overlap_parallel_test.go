package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"molq/internal/geom"
)

// ovrFingerprint renders an OVR bit-exactly (combination key, MBR, region
// vertices), so two diagrams compare as multisets of identical OVRs.
func ovrFingerprint(o *OVR) string {
	s := fmt.Sprintf("%s|%v|%v", o.Key(), o.MBR.Min, o.MBR.Max)
	for _, p := range o.Region {
		s += fmt.Sprintf("|%v", p)
	}
	return s
}

func ovrMultiset(m *MOVD) map[string]int {
	out := make(map[string]int, len(m.OVRs))
	for i := range m.OVRs {
		out[ovrFingerprint(&m.OVRs[i])]++
	}
	return out
}

func requireSameMultiset(t *testing.T, label string, want, got *MOVD) {
	t.Helper()
	wm, gm := ovrMultiset(want), ovrMultiset(got)
	if len(wm) != len(gm) {
		t.Fatalf("%s: %d distinct OVR fingerprints, want %d", label, len(gm), len(wm))
	}
	for k, n := range wm {
		if gm[k] != n {
			t.Fatalf("%s: fingerprint count %d, want %d for %q", label, gm[k], n, k)
		}
	}
}

// TestOverlapParallelMatchesSequential is the core equivalence guarantee:
// the sharded sweep emits the sequential sweep's OVR multiset bit-exactly,
// for every worker count, in both modes, and all statistics except the
// per-strip Events agree.
func TestOverlapParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, mode := range []Mode{RRB, MBRB} {
		for _, n := range []int{8, 40, 120} {
			a := basicMOVD(t, makeSet(r, 0, n), mode)
			b := basicMOVD(t, makeSet(r, 1, n+5), mode)
			seq, seqStats, err := Overlap(nil, 1, nil, a, b)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 3, 8, 33} {
				label := fmt.Sprintf("%v/n=%d/workers=%d", mode, n, w)
				par, parStats, err := Overlap(nil, w, nil, a, b)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSameMultiset(t, label, seq, par)
				if parStats.CandidatePairs != seqStats.CandidatePairs ||
					parStats.RegionTests != seqStats.RegionTests ||
					parStats.OutputOVRs != seqStats.OutputOVRs ||
					parStats.OutputPoints != seqStats.OutputPoints ||
					parStats.PrunedOVRs != seqStats.PrunedOVRs {
					t.Fatalf("%s: stats %+v, want %+v (Events excepted)", label, parStats, seqStats)
				}
				if parStats.Events < seqStats.Events {
					t.Fatalf("%s: parallel Events %d below sequential %d", label, parStats.Events, seqStats.Events)
				}
				if got := typesUnion(a.Types, b.Types); !reflect.DeepEqual(par.Types, got) {
					t.Fatalf("%s: result types %v, want %v", label, par.Types, got)
				}
			}
		}
	}
}

// TestOverlapParallelPrunedMatchesSequential checks pruning composes with the
// sharded sweep: same survivors, same pruned count.
func TestOverlapParallelPrunedMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	// Prune everything left of x=400 — a pure function of the OVR, safe to
	// call from any strip worker.
	prune := func(mbr geom.Rect, pois []Object) bool { return mbr.Max.X < 400 }
	for _, mode := range []Mode{RRB, MBRB} {
		a := basicMOVD(t, makeSet(r, 0, 60), mode)
		b := basicMOVD(t, makeSet(r, 1, 70), mode)
		seq, seqStats, err := Overlap(prune, 1, nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if seqStats.PrunedOVRs == 0 {
			t.Fatalf("%v: prune never fired; test is vacuous", mode)
		}
		for _, w := range []int{2, 4, 7} {
			par, parStats, err := Overlap(prune, w, nil, a, b)
			if err != nil {
				t.Fatal(err)
			}
			requireSameMultiset(t, fmt.Sprintf("%v/workers=%d", mode, w), seq, par)
			if parStats.PrunedOVRs != seqStats.PrunedOVRs {
				t.Fatalf("%v/workers=%d: pruned %d, want %d", mode, w, parStats.PrunedOVRs, seqStats.PrunedOVRs)
			}
		}
	}
}

// TestParallelOverlapChain checks the balanced reduction against the
// sequential left fold the query layer runs (basics[0] ⊕ basics[1] ⊕ …; no
// identity head) for 2–5 diagrams. Up to three operands the reduction shape
// coincides with the fold, so OVRs match bit-exactly; beyond that the
// combinations still match and region areas agree to tolerance.
func TestParallelOverlapChain(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for _, mode := range []Mode{RRB, MBRB} {
		for types := 2; types <= 5; types++ {
			basics := make([]*MOVD, types)
			for ti := 0; ti < types; ti++ {
				basics[ti] = basicMOVD(t, makeSet(r, ti, 10+3*ti), mode)
			}
			seq := basics[0]
			for _, m := range basics[1:] {
				next, _, err := Overlap(nil, 1, nil, seq, m)
				if err != nil {
					t.Fatal(err)
				}
				seq = next
			}
			for _, w := range []int{1, 2, 8} {
				label := fmt.Sprintf("%v/types=%d/workers=%d", mode, types, w)
				par, _, err := Overlap(nil, w, nil, basics...)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if types <= 3 {
					requireSameMultiset(t, label, seq, par)
					continue
				}
				// Association differs: compare combination keys and areas.
				if mode == RRB {
					if !signaturesEqual(movdSignature(seq), movdSignature(par), 1e-6) {
						t.Fatalf("%s: signatures differ", label)
					}
				}
				if par.Len() != seq.Len() {
					t.Fatalf("%s: %d OVRs, want %d", label, par.Len(), seq.Len())
				}
			}
		}
	}
}

// TestParallelOverlapDegenerate covers the edge paths of the chain.
func TestParallelOverlapDegenerate(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	m := basicMOVD(t, makeSet(r, 0, 9), RRB)
	// Zero operands is an error at any worker count.
	for _, w := range []int{1, 4} {
		if _, _, err := Overlap(nil, w, nil); err == nil {
			t.Fatalf("workers=%d: empty chain accepted", w)
		}
	}
	// One operand returns it unchanged.
	one, _, err := Overlap(nil, 4, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if one != m {
		t.Fatal("single-operand fold should return the operand")
	}
	// Mode mismatch surfaces the sequential error.
	other := basicMOVD(t, makeSet(r, 1, 9), MBRB)
	if _, _, err := Overlap(nil, 4, nil, m, other); !errors.Is(err, ErrModeMismatch) {
		t.Fatalf("mode mismatch: %v", err)
	}
	// workers ≤ 0 runs the sequential fold.
	n := basicMOVD(t, makeSet(t_rand(54), 1, 11), RRB)
	seq, _, err := Overlap(nil, 1, nil, m, n)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := Overlap(nil, -1, nil, m, n)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMultiset(t, "workers=-1", seq, par)
}

func t_rand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestOverlapStreamEmitError checks a failing emit aborts the sweep and
// propagates its error.
func TestOverlapStreamEmitError(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	a := basicMOVD(t, makeSet(r, 0, 30), RRB)
	b := basicMOVD(t, makeSet(r, 1, 30), RRB)
	boom := errors.New("boom")
	count := 0
	_, err := OverlapStream(a, b, nil, func(o *OVR) error {
		count++
		if count >= 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if count != 3 {
		t.Fatalf("emit called %d times after failing on call 3", count)
	}
}

// TestStripperCoversBounds pins the strip-assignment invariants the
// exactly-once pair ownership proof rests on: every y lands in exactly one
// strip, outliers clamp to the edge strips, and index is monotone.
func TestStripperCoversBounds(t *testing.T) {
	s := newStripper(geom.NewRect(geom.Pt(0, 10), geom.Pt(100, 110)), 7)
	if s.index(9) != 0 || s.index(10) != 0 {
		t.Fatal("low edge should clamp into strip 0")
	}
	if s.index(110) != 6 || s.index(200) != 6 {
		t.Fatal("high edge should clamp into the last strip")
	}
	prev := 0
	for y := 0.0; y <= 120; y += 0.5 {
		i := s.index(y)
		if i < 0 || i >= 7 {
			t.Fatalf("index(%v) = %d out of range", y, i)
		}
		if i < prev {
			t.Fatalf("index not monotone at y=%v", y)
		}
		prev = i
	}
}

// TestOverlapStatsAddCoversAllFields fails when OverlapStats gains a field
// that Add does not accumulate: it fills every int field with a distinct
// value via reflection, adds twice, and expects every field doubled plus the
// base. A missed field keeps its base value and trips the check.
func TestOverlapStatsAddCoversAllFields(t *testing.T) {
	var base, inc OverlapStats
	bv := reflect.ValueOf(&base).Elem()
	iv := reflect.ValueOf(&inc).Elem()
	tp := bv.Type()
	for i := 0; i < tp.NumField(); i++ {
		if tp.Field(i).Type.Kind() != reflect.Int {
			t.Fatalf("field %s is %v; extend this test and OverlapStats.Add for non-int fields",
				tp.Field(i).Name, tp.Field(i).Type)
		}
		bv.Field(i).SetInt(int64(1000 + i))
		iv.Field(i).SetInt(int64(1 + i))
	}
	sum := base
	sum.Add(inc)
	sv := reflect.ValueOf(sum)
	for i := 0; i < tp.NumField(); i++ {
		want := int64(1000+i) + int64(1+i)
		if got := sv.Field(i).Int(); got != want {
			t.Fatalf("OverlapStats.Add misses field %s: got %d, want %d", tp.Field(i).Name, got, want)
		}
	}
}

// TestMergePOIsLinearMerge unit-tests the linear (Type,ID)-keyed merge:
// union semantics, canonical output order, and symmetry of the key set under
// operand swap.
func TestMergePOIsLinearMerge(t *testing.T) {
	o := func(ty, id int) Object { return Object{Type: ty, ID: id, TypeWeight: 1, ObjWeight: 1} }
	a := []Object{o(0, 1), o(0, 4), o(1, 2), o(2, 0)}
	b := []Object{o(0, 4), o(1, 0), o(1, 2), o(3, 9)}
	got := mergePOIsInto(nil, a, b)
	want := []Object{o(0, 1), o(0, 4), o(1, 0), o(1, 2), o(2, 0), o(3, 9)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mergePOIsInto = %+v, want %+v", got, want)
	}
	// Commuted operands produce the same canonical order.
	if swapped := mergePOIsInto(nil, b, a); !reflect.DeepEqual(swapped, want) {
		t.Fatalf("mergePOIsInto(nil, b, a) = %+v, want %+v", swapped, want)
	}
	// Empty operands.
	if !reflect.DeepEqual(mergePOIsInto(nil, nil, b), b) || !reflect.DeepEqual(mergePOIsInto(nil, a, nil), a) {
		t.Fatal("merge with empty operand should return the other")
	}
}

// TestOverlapPOIsOrdered asserts the invariant the linear merge relies on:
// every OVR an overlap emits carries its POIs sorted by (Type, ID), so the
// lists stay mergeable down an arbitrarily long ⊕ chain.
func TestOverlapPOIsOrdered(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, mode := range []Mode{RRB, MBRB} {
		basics := make([]*MOVD, 4)
		for ti := range basics {
			basics[ti] = basicMOVD(t, makeSet(r, ti, 12), mode)
		}
		m, _, err := Overlap(nil, 1, nil, basics...)
		if err != nil {
			t.Fatal(err)
		}
		for i := range m.OVRs {
			pois := m.OVRs[i].POIs
			for j := 1; j < len(pois); j++ {
				x, y := pois[j-1], pois[j]
				if x.Type > y.Type || (x.Type == y.Type && x.ID >= y.ID) {
					t.Fatalf("%v: OVR %d POIs out of (Type,ID) order: %+v", mode, i, pois)
				}
			}
		}
	}
}
