//go:build amd64

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"molq/internal/geom"
)

// The chain golden pins the exact output of the materialising ⊕ chain: for
// every case, a hash of the OVR sequence (order, MBR and region float bits,
// POIs) and every OverlapStats field. Refactors of the overlap entry points
// must reproduce it byte for byte, at one worker (the left fold of Eq 27) and
// at two (the balanced reduction over sharded sweeps). The file is
// amd64-only because float results may differ in the last bit on
// architectures that fuse multiply-adds.

const chainGoldenPath = "testdata/overlap_chain_golden.json"

// chainRecord is one pinned chain outcome.
type chainRecord struct {
	Name           string `json:"name"`
	Types          []int  `json:"types"`
	Hash           string `json:"hash"`
	Events         int    `json:"events"`
	CandidatePairs int    `json:"candidate_pairs"`
	RegionTests    int    `json:"region_tests"`
	OutputOVRs     int    `json:"output_ovrs"`
	OutputPoints   int    `json:"output_points"`
	PrunedOVRs     int    `json:"pruned_ovrs"`
}

// goldenPrune drops combinations left of x=200 or whose POIs spread more
// than 700 apart. Both tests are monotone — a sub-box or a superset of a
// pruned combination is pruned too — so the prune is sound mid-chain, and
// it depends only on its arguments, so strip workers may call it at once.
func goldenPrune(mbr geom.Rect, pois []Object) bool {
	if mbr.Max.X < 200 {
		return true
	}
	for i := range pois {
		for j := i + 1; j < len(pois); j++ {
			if pois[i].Loc.Dist(pois[j].Loc) > 700 {
				return true
			}
		}
	}
	return false
}

// hashOVRs digests the OVR sequence in order: MBR bits, region vertex bits
// and every POI field.
func hashOVRs(m *MOVD) string {
	h := sha256.New()
	var buf [8]byte
	f := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	n := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		h.Write(buf[:])
	}
	for i := range m.OVRs {
		o := &m.OVRs[i]
		f(o.MBR.Min.X)
		f(o.MBR.Min.Y)
		f(o.MBR.Max.X)
		f(o.MBR.Max.Y)
		n(len(o.Region))
		for _, p := range o.Region {
			f(p.X)
			f(p.Y)
		}
		n(len(o.POIs))
		for _, p := range o.POIs {
			n(p.Type)
			n(p.ID)
			f(p.Loc.X)
			f(p.Loc.Y)
			f(p.TypeWeight)
			f(p.ObjWeight)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// chainGoldenRecords runs every case: chains of 2–5 operands, both modes,
// prune off and on, at one and two workers. Two-worker cases are left out
// when GOMAXPROCS < 2, where the sharded sweep cannot run.
func chainGoldenRecords(t *testing.T) []chainRecord {
	t.Helper()
	var out []chainRecord
	for _, mode := range []Mode{RRB, MBRB} {
		for n := 2; n <= 5; n++ {
			r := rand.New(rand.NewSource(int64(100 + n)))
			basics := make([]*MOVD, n)
			for ti := range basics {
				basics[ti] = basicMOVD(t, makeSet(r, ti, 18+4*ti), mode)
			}
			for _, pruned := range []bool{false, true} {
				var prune PruneFunc
				if pruned {
					prune = goldenPrune
				}
				for _, workers := range []int{1, 2} {
					if workers > 1 && runtime.GOMAXPROCS(0) < 2 {
						continue
					}
					name := fmt.Sprintf("%v/operands=%d/prune=%t/workers=%d", mode, n, pruned, workers)
					m, st, err := Overlap(prune, workers, nil, basics...)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					out = append(out, chainRecord{
						Name:           name,
						Types:          m.Types,
						Hash:           hashOVRs(m),
						Events:         st.Events,
						CandidatePairs: st.CandidatePairs,
						RegionTests:    st.RegionTests,
						OutputOVRs:     st.OutputOVRs,
						OutputPoints:   st.OutputPoints,
						PrunedOVRs:     st.PrunedOVRs,
					})
				}
			}
		}
	}
	return out
}

// TestOverlapChainGolden compares every case against the committed golden,
// matching records by name.
func TestOverlapChainGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(chainGoldenPath))
	if err != nil {
		t.Fatal(err)
	}
	var records []chainRecord
	if err := json.Unmarshal(raw, &records); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]chainRecord, len(records))
	for _, rec := range records {
		want[rec.Name] = rec
	}
	got := chainGoldenRecords(t)
	if len(got) == 0 {
		t.Fatal("no cases ran")
	}
	for _, g := range got {
		w, ok := want[g.Name]
		if !ok {
			t.Errorf("%s: not in the golden", g.Name)
			continue
		}
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Errorf("%s:\n got %s\nwant %s", g.Name, gj, wj)
		}
	}
}
