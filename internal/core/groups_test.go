package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestGroupsMatchesDedupKey checks Groups against first-occurrence dedup on
// CombinationDedupKey, on OVRs that repeat combinations with their POIs in
// permuted order and that mix group sizes.
func TestGroupsMatchesDedupKey(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for round := 0; round < 100; round++ {
		m := &MOVD{}
		for range r.Intn(400) {
			g := make([]Object, 1+r.Intn(10))
			for k := range g {
				g[k] = Object{Type: r.Intn(3), ID: r.Intn(6)}
			}
			m.OVRs = append(m.OVRs, OVR{POIs: g})
			if r.Intn(3) == 0 {
				dup := slices.Clone(g)
				r.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
				m.OVRs = append(m.OVRs, OVR{POIs: dup})
			}
		}
		seen := map[string]bool{}
		var want [][]Object
		for i := range m.OVRs {
			if k := m.OVRs[i].DedupKey(); !seen[k] {
				seen[k] = true
				want = append(want, m.OVRs[i].POIs)
			}
		}
		got := m.Groups()
		if len(got) != len(want) {
			t.Fatalf("round %d: %d groups, want %d", round, len(got), len(want))
		}
		for i := range want {
			if &got[i][0] != &want[i][0] {
				t.Fatalf("round %d: group %d is not the first occurrence", round, i)
			}
		}
	}
	if got := (&MOVD{}).Groups(); got != nil {
		t.Fatalf("empty MOVD: Groups = %v, want nil", got)
	}
}
