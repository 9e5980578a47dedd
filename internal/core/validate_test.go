package core

import (
	"math/rand"
	"strings"
	"testing"

	"molq/internal/geom"
)

func TestValidatePipelineOutputs(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, mode := range []Mode{RRB, MBRB} {
		a := basicMOVD(t, makeSet(r, 0, 10), mode)
		b := basicMOVD(t, makeSet(r, 1, 12), mode)
		if err := a.Validate(); err != nil {
			t.Fatalf("basic %v: %v", mode, err)
		}
		ab, _, err := Overlap(nil, 1, nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := ab.Validate(); err != nil {
			t.Fatalf("overlap %v: %v", mode, err)
		}
	}
	if err := Identity(testBounds, RRB).Validate(); err != nil {
		t.Fatalf("identity: %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	fresh := func() *MOVD {
		a := basicMOVD(t, makeSet(r, 0, 6), RRB)
		b := basicMOVD(t, makeSet(r, 1, 6), RRB)
		m, _, err := Overlap(nil, 1, nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name    string
		corrupt func(m *MOVD)
		want    string
	}{
		{"empty bounds", func(m *MOVD) { m.Bounds = geom.EmptyRect() }, "empty bounds"},
		{"unsorted types", func(m *MOVD) { m.Types = []int{1, 0} }, "not sorted"},
		{"empty mbr", func(m *MOVD) { m.OVRs[0].MBR = geom.EmptyRect() }, "empty MBR"},
		{"escaping mbr", func(m *MOVD) {
			m.OVRs[0].MBR = geom.NewRect(geom.Pt(-500, -500), geom.Pt(-400, -400))
		}, "escapes bounds"},
		{"missing region", func(m *MOVD) { m.OVRs[0].Region = nil }, "missing region"},
		{"mbr mismatch", func(m *MOVD) {
			m.OVRs[0].MBR = geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
			m.OVRs[0].Region = geom.NewPolygon(geom.Pt(0, 0), geom.Pt(900, 0), geom.Pt(0, 900))
		}, "does not match"},
		{"poi count", func(m *MOVD) { m.OVRs[0].POIs = m.OVRs[0].POIs[:1] }, "POIs for"},
		{"unknown type", func(m *MOVD) { m.OVRs[0].POIs[0].Type = 9 }, "unknown type"},
		{"duplicate type", func(m *MOVD) { m.OVRs[0].POIs[1].Type = m.OVRs[0].POIs[0].Type }, "two POIs"},
		{"bad weight", func(m *MOVD) { m.OVRs[0].POIs[0].TypeWeight = 0 }, "non-positive"},
	}
	for _, c := range cases {
		m := fresh()
		c.corrupt(m)
		err := m.Validate()
		if err == nil {
			t.Fatalf("%s: corruption not detected", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	// MBRB mode rejects regions.
	mb, _, err := Overlap(nil, 1, nil, basicMOVD(t, makeSet(r, 0, 4), MBRB), basicMOVD(t, makeSet(r, 1, 4), MBRB))
	if err != nil {
		t.Fatal(err)
	}
	mb.OVRs[0].Region = geom.NewPolygon(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1))
	if err := mb.Validate(); err == nil || !strings.Contains(err.Error(), "carries a region") {
		t.Fatalf("MBRB region not detected: %v", err)
	}
}
