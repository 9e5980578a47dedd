package dataset

import (
	"bytes"
	"strings"
	"testing"

	"molq/internal/geom"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 7}
	a := Generate(cfg, STM, 500)
	b := Generate(cfg, STM, 500)
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	unique := map[geom.Point]bool{}
	for _, p := range a {
		unique[p] = true
	}
	if len(unique) < len(a)*9/10 {
		t.Fatalf("generator produced only %d unique points of %d", len(unique), len(a))
	}
}

func TestGenerateTypesDiffer(t *testing.T) {
	cfg := Config{Seed: 7}
	a := Generate(cfg, STM, 100)
	b := Generate(cfg, CH, 100)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different types produced identical samples")
	}
}

func TestGenerateInBounds(t *testing.T) {
	cfg := Config{Seed: 3}
	for _, p := range Generate(cfg, SCH, 2000) {
		if !DefaultBounds.Contains(p) {
			t.Fatalf("point %v outside bounds", p)
		}
	}
}

func TestGenerateIsClustered(t *testing.T) {
	// Clustered data should concentrate mass: the densest 10% of grid
	// cells must hold well over 10% of the points.
	pts := Generate(Config{Seed: 11}, PPL, 5000)
	const g = 20
	var cells [g * g]int
	for _, p := range pts {
		cx := int(p.X / DefaultBounds.Width() * g)
		cy := int(p.Y / DefaultBounds.Height() * g)
		if cx >= g {
			cx = g - 1
		}
		if cy >= g {
			cy = g - 1
		}
		cells[cy*g+cx]++
	}
	counts := cells[:]
	// Partial selection: find the top 10% cells by count.
	top := 0
	for k := 0; k < g*g/10; k++ {
		bi := 0
		for i, c := range counts {
			if c > counts[bi] {
				bi = i
			}
		}
		top += counts[bi]
		counts[bi] = -1
	}
	if float64(top) < 0.3*float64(len(pts)) {
		t.Fatalf("top decile of cells holds only %d/%d points — not clustered", top, len(pts))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	recs := []Record{
		{X: 1.5, Y: 2.5, TypeWeight: 3, ObjWeight: 4},
		{X: -7, Y: 0, TypeWeight: 1, ObjWeight: 1},
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip length %d", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("row %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestReadRecordsDefaultsAndComments(t *testing.T) {
	in := "# comment\n\n3,4\n5,6,2\n7,8,2,0.5\n"
	recs, err := ReadRecords(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{X: 3, Y: 4, TypeWeight: 1, ObjWeight: 1},
		{X: 5, Y: 6, TypeWeight: 2, ObjWeight: 1},
		{X: 7, Y: 8, TypeWeight: 2, ObjWeight: 0.5},
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records", len(recs))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("row %d: %+v", i, recs[i])
		}
	}
}

func TestReadRecordsErrors(t *testing.T) {
	for _, bad := range []string{"1\n", "a,b\n", "1,2,3,4,5\n", "1,x\n", "1,2,x\n", "1,2,3,x\n"} {
		if _, err := ReadRecords(strings.NewReader(bad)); err == nil {
			t.Fatalf("input %q should fail", bad)
		}
	}
}

func TestPaperSizes(t *testing.T) {
	if PaperSizes[STM] != 230762 || PaperSizes[BLDG] != 110289 {
		t.Fatal("paper cardinalities wrong")
	}
	if len(PaperTypes) != 5 {
		t.Fatal("want 5 paper types")
	}
}
