package core

import (
	"math/rand"
	"sync"
	"testing"
)

// TestOverlapEmitRetention pins the materialised-output half of the emit
// contract: the OVRs a sweep hands back in a result MOVD must own their
// Region/POIs memory, never alias the pooled sweep scratch. The test holds
// a result across many subsequent sweeps — which recycle that scratch —
// while reader goroutines walk the held OVRs. Run under -race, any emitted
// slice still backed by pooled scratch shows up as a write/read race; the
// final fingerprint comparison catches silent value corruption too.
func TestOverlapEmitRetention(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for _, mode := range []Mode{RRB, MBRB} {
		a := basicMOVD(t, makeSet(r, 0, 50), mode)
		b := basicMOVD(t, makeSet(r, 1, 55), mode)

		// Materialise and retain: one sequential result, one parallel.
		seq, _, err := Overlap(nil, 1, nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		par, _, err := Overlap(nil, 4, nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		held := []*MOVD{seq, par}
		snap := make([][]string, len(held))
		for hi, m := range held {
			snap[hi] = make([]string, len(m.OVRs))
			for i := range m.OVRs {
				snap[hi][i] = ovrFingerprint(&m.OVRs[i])
			}
		}

		// Writers rerun both sweep flavours, churning the scratch pool,
		// while readers walk every held OVR's Region and POIs.
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 3; k++ {
					if _, _, err := Overlap(nil, 1, nil, a, b); err != nil {
						t.Error(err)
						return
					}
					if _, _, err := Overlap(nil, 4, nil, a, b); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 6; k++ {
					for _, m := range held {
						for i := range m.OVRs {
							_ = ovrFingerprint(&m.OVRs[i])
						}
					}
				}
			}()
		}
		wg.Wait()

		for hi, m := range held {
			for i := range m.OVRs {
				if got := ovrFingerprint(&m.OVRs[i]); got != snap[hi][i] {
					t.Fatalf("mode %v held diagram %d OVR %d mutated by later sweeps", mode, hi, i)
				}
			}
		}
	}
}

// TestOverlapStreamEmitClone pins the streaming half: an emit callback that
// deep-copies with OVR.Clone keeps a faithful snapshot even though the
// emitted pointer itself is scratch that later pairs overwrite.
func TestOverlapStreamEmitClone(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	a := basicMOVD(t, makeSet(r, 0, 40), RRB)
	b := basicMOVD(t, makeSet(r, 1, 45), RRB)
	var clones []OVR
	if _, err := OverlapStream(a, b, nil, func(o *OVR) error {
		clones = append(clones, o.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want, _, err := Overlap(nil, 1, nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(clones) != len(want.OVRs) {
		t.Fatalf("streamed %d OVRs, materialised %d", len(clones), len(want.OVRs))
	}
	seen := make(map[string]int, len(clones))
	for i := range clones {
		seen[ovrFingerprint(&clones[i])]++
	}
	for i := range want.OVRs {
		fp := ovrFingerprint(&want.OVRs[i])
		if seen[fp] == 0 {
			t.Fatalf("cloned stream lost OVR %q", fp)
		}
		seen[fp]--
	}
}
