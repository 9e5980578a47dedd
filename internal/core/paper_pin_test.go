//go:build amd64

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"molq/internal/dataset"
	"molq/internal/geom"
	"molq/internal/voronoi"
)

// The paper-scale pin fixes the exact bits of the VD Generator and the ⊕
// sweep at the size a servebench solve runs (two types × 1,000 sites over the
// continental extent), where the ≥5-vertex O(n+m) clip kernel runs on
// thousands of candidate pairs — the chain golden's 18–34 site diagrams
// rarely reach it. Constant-factor work on voronoi, polyclip or the sweep
// must leave every hash below unchanged. amd64-only for the same reason as
// the chain golden: fused multiply-adds elsewhere may move a last bit.

const (
	pinVoronoiSTM  = "360a181f9904672699d7c9a8bf478a70c063df04c739dc8ce058e582255f4f98"
	pinVoronoiCH   = "59820e13ada7441b6adbbfb1a1b0d68b339416fe7dc5e100f01a019a37a12866"
	pinDynamic     = "5641f5a5fc1a326f959582c4b9bf33d823874b773d42001ed15bcfd400d56727/c676f826c1f46697b993c4babfdbedd33c7c9725f139c6733bef4483d5df798d"
	pinOverlapRRB  = "79ee6fa6599e969a489a7e46bad070a7623ce1486d09e01f00127c962be64081/4000/6535/4498/21830"
	pinOverlapMB   = "210909c372dcf60468561e7338db1b444da852d1735c5a18fbb70f783d64ad05/4000/6535/6535/13070"
	pinGroupsRRB   = "36fa2165d735140a16b08d5331c4d6fea1ebb682af24cc5cde7a564bf11435dd"
	pinGroupsMB    = "a295849330afc23ebad167c92cdf215f39a02b3d8a6b157a0c649bdb71a30207"
	pinGroupsSelf  = "36d3ba3f5801cc88702d63ef4b250daedb6751c3a5420b567ab18dc26d5c901f/4313/7626"
	pinOverlapRRB2 = "7d85daea98b7d0c647a402cc324410c5d71cf78988aeaab6161293a000888d09/6535/4498/21830"
)

// pinHasher digests float bits and integers in a fixed little-endian layout.
type pinHasher struct{ buf []byte }

func (p *pinHasher) f(x float64) {
	p.buf = binary.LittleEndian.AppendUint64(p.buf, math.Float64bits(x))
}

func (p *pinHasher) n(x int) { p.buf = binary.LittleEndian.AppendUint64(p.buf, uint64(int64(x))) }

func (p *pinHasher) poly(pg geom.Polygon) {
	if pg == nil {
		p.n(-1)
		return
	}
	p.n(len(pg))
	for _, v := range pg {
		p.f(v.X)
		p.f(v.Y)
	}
}

func (p *pinHasher) hex() string { return fmt.Sprintf("%x", sha256.Sum256(p.buf)) }

func hashCells(cells []geom.Polygon) string {
	var p pinHasher
	for _, c := range cells {
		p.poly(c)
	}
	return p.hex()
}

func hashGroups(groups [][]Object) string {
	var p pinHasher
	for _, g := range groups {
		p.n(len(g))
		for i := range g {
			p.n(g[i].Type)
			p.n(g[i].ID)
		}
	}
	return p.hex()
}

// pinObjects generates one paper type at seed 7 as unit-weight objects.
func pinObjects(typeIdx int, name string, n int) []Object {
	pts := dataset.Generate(dataset.Config{Seed: 7}, name, n)
	objs := make([]Object, len(pts))
	for i, p := range pts {
		objs[i] = Object{ID: i, Type: typeIdx, Loc: p, TypeWeight: 1, ObjWeight: 1}
	}
	return objs
}

func TestPaperScalePin(t *testing.T) {
	bounds := dataset.DefaultBounds
	names := []string{dataset.STM, dataset.CH}
	cellPins := []string{pinVoronoiSTM, pinVoronoiCH}
	diagrams := make([]*voronoi.Diagram, len(names))
	objects := make([][]Object, len(names))
	for ti, name := range names {
		objects[ti] = pinObjects(ti, name, 1000)
		sites := make([]geom.Point, len(objects[ti]))
		for i := range objects[ti] {
			sites[i] = objects[ti][i].Loc
		}
		d, err := voronoi.Compute(sites, bounds)
		if err != nil {
			t.Fatal(err)
		}
		diagrams[ti] = d
		if got := hashCells(d.Cells); got != cellPins[ti] {
			t.Errorf("voronoi.Compute %s × 1000: cells hash %s, want %s", name, got, cellPins[ti])
		}
	}

	// A maintained diagram after a seeded mix of inserts and deletes: the
	// insert path shares triangulation.insert with Compute.
	dyn, err := voronoi.NewDynamic(diagrams[0].Sites, bounds)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	var dirt pinHasher
	for op := 0; op < 400; op++ {
		var dirty []int
		if op%3 == 2 {
			slot := r.Intn(dyn.Slots())
			if !dyn.Alive(slot) {
				continue
			}
			dirty, err = dyn.Delete(slot)
		} else {
			p := geom.Pt(bounds.Min.X+r.Float64()*bounds.Width(), bounds.Min.Y+r.Float64()*bounds.Height())
			_, dirty, err = dyn.Insert(p)
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		dirt.n(len(dirty))
		for _, s := range dirty {
			dirt.n(s)
		}
	}
	dd, err := dyn.Diagram()
	if err != nil {
		t.Fatal(err)
	}
	if got := hashCells(dd.Cells) + "/" + dirt.hex(); got != pinDynamic {
		t.Errorf("Dynamic after 400 mutations: hash %s, want %s", got, pinDynamic)
	}

	for _, tc := range []struct {
		mode            Mode
		overlap, groups string
	}{
		{RRB, pinOverlapRRB, pinGroupsRRB},
		{MBRB, pinOverlapMB, pinGroupsMB},
	} {
		basics := make([]*MOVD, len(names))
		for ti := range names {
			m, err := FromVoronoi(diagrams[ti], objects[ti], ti, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			basics[ti] = m
		}
		m, st, err := Overlap(nil, 1, nil, basics...)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%s/%d/%d/%d/%d", hashOVRs(m), st.Events, st.CandidatePairs, st.OutputOVRs, st.OutputPoints)
		if got != tc.overlap {
			t.Errorf("%v Overlap: %s, want %s", tc.mode, got, tc.overlap)
		}
		if got := hashGroups(m.Groups()); got != tc.groups {
			t.Errorf("%v Groups: hash %s, want %s", tc.mode, got, tc.groups)
		}
		if tc.mode == RRB {
			// The sharded sweep orders OVRs by strip, so it has its own pin;
			// it needs two Ps to run at all.
			if runtime.GOMAXPROCS(0) < 2 {
				continue
			}
			m2, st2, err := Overlap(nil, 2, nil, basics...)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%s/%d/%d/%d", hashOVRs(m2), st2.CandidatePairs, st2.OutputOVRs, st2.OutputPoints)
			if got != pinOverlapRRB2 {
				t.Errorf("RRB Overlap at 2 workers: %s, want %s", got, pinOverlapRRB2)
			}
			continue
		}
		// MBRB self-overlap repeats every combination {a, b} as (a, b) and
		// (b, a), so Groups' dedup and first-occurrence order are exercised.
		self, _, err := Overlap(nil, 1, nil, basics[0], basics[0])
		if err != nil {
			t.Fatal(err)
		}
		groups := self.Groups()
		if got := fmt.Sprintf("%s/%d/%d", hashGroups(groups), len(groups), len(self.OVRs)); got != pinGroupsSelf {
			t.Errorf("MBRB self-overlap Groups: %s, want %s", got, pinGroupsSelf)
		}
	}
}
