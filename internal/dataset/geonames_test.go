package dataset

import (
	"math"
	"strings"
	"testing"

	"molq/internal/geom"
)

// row builds a 19-column GeoNames line with the fields this reader uses.
func row(id, name string, lat, lon, code string) string {
	cols := make([]string, 19)
	cols[0] = id
	cols[1] = name
	cols[2] = name
	cols[4] = lat
	cols[5] = lon
	cols[6] = "S"
	cols[7] = code
	return strings.Join(cols, "\t")
}

func TestReadGeoNames(t *testing.T) {
	doc := strings.Join([]string{
		"# header comment",
		row("1", "Auburn School", "32.60", "-85.48", "SCH"),
		row("2", "Chewacla Creek", "32.54", "-85.47", "STM"),
		"",
		row("3", "First Church", "32.61", "-85.49", "CH"),
	}, "\n")
	recs, err := ReadGeoNames(strings.NewReader(doc), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records: %d", len(recs))
	}
	if recs[0].Name != "Auburn School" || recs[0].FeatureCode != "SCH" || recs[0].ID != 1 {
		t.Fatalf("first record: %+v", recs[0])
	}
	if recs[1].Lat != 32.54 || recs[1].Lon != -85.47 {
		t.Fatalf("coords: %+v", recs[1])
	}
}

func TestReadGeoNamesFilter(t *testing.T) {
	doc := strings.Join([]string{
		row("1", "a", "1", "1", "SCH"),
		row("2", "b", "2", "2", "STM"),
		row("3", "c", "3", "3", "SCH"),
	}, "\n")
	recs, err := ReadGeoNames(strings.NewReader(doc), map[string]bool{"SCH": true})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("filtered records: %d", len(recs))
	}
	groups := GroupByFeatureCode(recs)
	if len(groups["SCH"]) != 2 || len(groups["STM"]) != 0 {
		t.Fatalf("groups: %v", groups)
	}
}

func TestReadGeoNamesErrors(t *testing.T) {
	bad := []string{
		"too\tfew\tcolumns",
		row("x", "a", "1", "1", "SCH"),    // bad id
		row("1", "a", "lat", "1", "SCH"),  // bad lat
		row("1", "a", "1", "lon", "SCH"),  // bad lon
		row("1", "a", "95", "1", "SCH"),   // lat out of range
		row("1", "a", "1", "-181", "SCH"), // lon out of range
	}
	for i, doc := range bad {
		if _, err := ReadGeoNames(strings.NewReader(doc), nil); err == nil {
			t.Fatalf("case %d accepted: %q", i, doc)
		}
	}
}

func TestProjectionDistances(t *testing.T) {
	p := NewProjection(40, -100)
	// One degree of latitude ≈ 111.32 km.
	a := p.Project(40, -100)
	b := p.Project(41, -100)
	if d := a.Dist(b); math.Abs(d-111.32) > 1e-9 {
		t.Fatalf("1° latitude = %v km", d)
	}
	// One degree of longitude at 40°N ≈ 111.32·cos(40°) ≈ 85.28 km.
	c := p.Project(40, -99)
	want := 111.32 * math.Cos(40*math.Pi/180)
	if d := a.Dist(c); math.Abs(d-want) > 1e-9 {
		t.Fatalf("1° longitude = %v km, want %v", d, want)
	}
}

func TestProjectionFor(t *testing.T) {
	recs := []GeoNamesRecord{
		{Lat: 30, Lon: -90},
		{Lat: 50, Lon: -110},
	}
	p := ProjectionFor(recs)
	if p.RefLat != 40 || p.RefLon != -100 {
		t.Fatalf("centroid projection: %+v", p)
	}
	pts := []geom.Point{p.Project(recs[0].Lat, recs[0].Lon), p.Project(recs[1].Lat, recs[1].Lon)}
	// Centroid of projected points is near the origin.
	mid := pts[0].Add(pts[1]).Scale(0.5)
	if mid.Norm() > 1e-9 {
		t.Fatalf("projected centroid %v", mid)
	}
	if pe := ProjectionFor(nil); pe.RefLat != 0 || pe.RefLon != 0 {
		t.Fatalf("empty projection: %+v", pe)
	}
}
