package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"molq/internal/core"
	"molq/internal/geom"
	"molq/internal/voronoi"
)

var bounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))

func buildMOVD(t testing.TB, seed int64, n, ti int, mode core.Mode) *core.MOVD {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	objs := make([]core.Object, n)
	sites := make([]geom.Point, n)
	for i := range objs {
		sites[i] = geom.Pt(r.Float64()*1000, r.Float64()*1000)
		objs[i] = core.Object{
			ID: i, Type: ti, Loc: sites[i],
			TypeWeight: 1 + r.Float64()*3, ObjWeight: 1,
		}
	}
	d, err := voronoi.Compute(sites, bounds)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.FromVoronoi(d, objs, ti, mode)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func movdEqual(a, b *core.MOVD) bool {
	if a.Mode != b.Mode || a.Bounds != b.Bounds || len(a.OVRs) != len(b.OVRs) ||
		len(a.Types) != len(b.Types) {
		return false
	}
	for i := range a.Types {
		if a.Types[i] != b.Types[i] {
			return false
		}
	}
	for i := range a.OVRs {
		x, y := &a.OVRs[i], &b.OVRs[i]
		if x.MBR != y.MBR || len(x.Region) != len(y.Region) || len(x.POIs) != len(y.POIs) {
			return false
		}
		for j := range x.Region {
			if x.Region[j] != y.Region[j] {
				return false
			}
		}
		for j := range x.POIs {
			if x.POIs[j] != y.POIs[j] {
				return false
			}
		}
	}
	return true
}

func TestRoundTripRRB(t *testing.T) {
	m := buildMOVD(t, 1, 40, 0, core.RRB)
	var buf bytes.Buffer
	if err := WriteMOVD(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMOVD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !movdEqual(m, got) {
		t.Fatal("round trip lost data")
	}
}

func TestRoundTripMBRB(t *testing.T) {
	m := buildMOVD(t, 2, 25, 1, core.MBRB)
	var buf bytes.Buffer
	if err := WriteMOVD(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMOVD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !movdEqual(m, got) {
		t.Fatal("MBRB round trip lost data")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := ReadMOVD(bytes.NewReader([]byte("NOPE----------------"))); err != ErrBadMagic {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	// Version mismatch.
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.Write([]byte{9, 9}) // version 0x0909
	if _, err := ReadMOVD(&buf); err == nil {
		t.Fatal("bad version should fail")
	}
	// Truncated stream.
	m := buildMOVD(t, 4, 10, 0, core.RRB)
	var full bytes.Buffer
	if err := WriteMOVD(&full, m); err != nil {
		t.Fatal(err)
	}
	trunc := full.Bytes()[:full.Len()-7]
	if _, err := ReadMOVD(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated snapshot should fail")
	}
}

func TestChecksumDetectsBitRot(t *testing.T) {
	m := buildMOVD(t, 21, 12, 0, core.RRB)
	var buf bytes.Buffer
	if err := WriteMOVD(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one payload byte somewhere past the header.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)/2] ^= 0x01
	_, err := ReadMOVD(bytes.NewReader(corrupt))
	if err == nil {
		t.Fatal("bit rot not detected")
	}
	// Drop the footer entirely.
	if _, err := ReadMOVD(bytes.NewReader(raw[:len(raw)-13])); err == nil {
		t.Fatal("missing footer not detected")
	}
}

func TestIterateOVRsChecksum(t *testing.T) {
	a := buildMOVD(t, 22, 10, 0, core.MBRB)
	b := buildMOVD(t, 23, 10, 1, core.MBRB)
	path := filepath.Join(t.TempDir(), "c.movd")
	if _, err := OverlapToFile(a, b, nil, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	bad := filepath.Join(t.TempDir(), "bad.movd")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = IterateOVRs(bad, func(*core.OVR) error { return nil })
	if err == nil {
		t.Fatal("corrupted spill accepted")
	}
}

func TestOverlapToFileMatchesInMemory(t *testing.T) {
	a := buildMOVD(t, 5, 30, 0, core.RRB)
	b := buildMOVD(t, 6, 25, 1, core.RRB)
	mem, memStats, err := core.Overlap(nil, 1, nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spill.movd")
	stats, err := OverlapToFile(a, b, nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OutputOVRs != memStats.OutputOVRs {
		t.Fatalf("spill emitted %d OVRs, memory %d", stats.OutputOVRs, memStats.OutputOVRs)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	disk, err := ReadMOVD(f)
	if err != nil {
		t.Fatal(err)
	}
	if !movdEqual(mem, disk) {
		t.Fatal("spilled overlap differs from in-memory overlap")
	}
}

func TestIterateOVRs(t *testing.T) {
	a := buildMOVD(t, 7, 20, 0, core.MBRB)
	b := buildMOVD(t, 8, 20, 1, core.MBRB)
	path := filepath.Join(t.TempDir(), "it.movd")
	stats, err := OverlapToFile(a, b, nil, path)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	err = IterateOVRs(path, func(o *core.OVR) error {
		if len(o.POIs) != 2 {
			t.Fatalf("OVR with %d POIs", len(o.POIs))
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != stats.OutputOVRs {
		t.Fatalf("iterated %d of %d", count, stats.OutputOVRs)
	}
}

func TestEmptyMOVDRoundTrip(t *testing.T) {
	m := core.Identity(bounds, core.RRB)
	var buf bytes.Buffer
	if err := WriteMOVD(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMOVD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.OVRs[0].MBR != bounds {
		t.Fatalf("identity round trip: %+v", got)
	}
}

// TestRoundTripRecordsPastBuffer covers records larger than the decoder's
// read buffer (decoded in pieces) and slab-carved records around them: a
// region of 10,000 vertices, a POI list of 3,000 objects, and small records
// between and after them. Every decoded slice is capped at its length, so
// appending to one cannot overwrite its neighbour, and every cut of the
// stream fails as truncated.
func TestRoundTripRecordsPastBuffer(t *testing.T) {
	m := buildMOVD(t, 9, 30, 0, core.RRB)
	big := core.OVR{MBR: bounds}
	for i := 0; i < 10000; i++ {
		big.Region = append(big.Region, geom.Pt(float64(i), float64(i%7)))
	}
	for i := 0; i < 3000; i++ {
		big.POIs = append(big.POIs, core.Object{ID: i, Type: 0, Loc: geom.Pt(float64(i), 1), TypeWeight: 1, ObjWeight: 2})
	}
	m.OVRs = append(m.OVRs[:10], append([]core.OVR{big}, m.OVRs[10:]...)...)
	var buf bytes.Buffer
	if err := WriteMOVD(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	got, err := ReadMOVD(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !movdEqual(m, got) {
		t.Fatal("round trip lost data")
	}
	for i := range got.OVRs {
		o := &got.OVRs[i]
		if cap(o.Region) != len(o.Region) || cap(o.POIs) != len(o.POIs) {
			t.Fatalf("OVR %d: region %d/%d, POIs %d/%d (len/cap)", i,
				len(o.Region), cap(o.Region), len(o.POIs), cap(o.POIs))
		}
	}
	path := filepath.Join(t.TempDir(), "big.movd")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var seen []core.OVR
	if err := IterateOVRs(path, func(o *core.OVR) error {
		seen = append(seen, *o)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !movdEqual(m, &core.MOVD{Mode: m.Mode, Bounds: m.Bounds, Types: m.Types, OVRs: seen}) {
		t.Fatal("iterated OVRs differ from the written ones")
	}
	for _, cut := range []int{len(raw) / 3, 2 * len(raw) / 3, len(raw) - 13} {
		if _, err := ReadMOVD(bytes.NewReader(raw[:cut])); err != ErrTruncated {
			t.Fatalf("cut at %d of %d: %v, want ErrTruncated", cut, len(raw), err)
		}
	}
}
