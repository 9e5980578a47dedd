package geojson

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"molq/internal/core"
	"molq/internal/geom"
)

func TestPointRoundTrip(t *testing.T) {
	fc := NewFeatureCollection()
	fc.Add(PointFeature(geom.Pt(3.5, -2.25), map[string]any{"type_weight": 2.0}))
	raw, err := fc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Features) != 1 {
		t.Fatalf("features: %d", len(back.Features))
	}
	p, err := back.Features[0].Point()
	if err != nil {
		t.Fatal(err)
	}
	if p != geom.Pt(3.5, -2.25) {
		t.Fatalf("point %v", p)
	}
}

// exterior decodes a Polygon feature's single ring, which must be closed,
// without its closing duplicate.
func exterior(t *testing.T, f *Feature) geom.Polygon {
	t.Helper()
	var rings [][][2]float64
	if err := json.Unmarshal(f.Geometry.Coordinates, &rings); err != nil || f.Geometry.Type != "Polygon" || len(rings) != 1 {
		t.Fatalf("not a one-ring Polygon: %s %s (%v)", f.Geometry.Type, f.Geometry.Coordinates, err)
	}
	ring := rings[0]
	if len(ring) < 2 || ring[0] != ring[len(ring)-1] {
		t.Fatalf("ring not closed: %v", ring)
	}
	pg := make(geom.Polygon, len(ring)-1)
	for i := range pg {
		pg[i] = geom.Pt(ring[i][0], ring[i][1])
	}
	return pg
}

func TestPolygonRoundTrip(t *testing.T) {
	pg := geom.NewPolygon(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4))
	fc := NewFeatureCollection()
	fc.Add(PolygonFeature(pg, nil))
	raw, err := fc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Ring must be closed in the serialised form.
	if !strings.Contains(string(raw), "[\n") && !strings.Contains(string(raw), "[[") {
		t.Fatalf("unexpected encoding: %s", raw)
	}
	back, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	got := exterior(t, &back.Features[0])
	if len(got) != 4 || got.Area() != 16 {
		t.Fatalf("polygon %v", got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("{")); err == nil {
		t.Fatal("bad json accepted")
	}
	if _, err := Unmarshal([]byte(`{"type":"Feature"}`)); err == nil {
		t.Fatal("wrong top-level type accepted")
	}
}

func TestGeometryTypeMismatch(t *testing.T) {
	pf := PolygonFeature(geom.NewPolygon(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)), nil)
	if _, err := pf.Point(); err == nil {
		t.Fatal("Polygon feature read as Point")
	}
}

func TestObjectsFromCollection(t *testing.T) {
	doc := `{"type":"FeatureCollection","features":[
	  {"type":"Feature","geometry":{"type":"Point","coordinates":[1,2]},
	   "properties":{"type_weight":3,"obj_weight":0.5}},
	  {"type":"Feature","geometry":{"type":"Point","coordinates":[4,5]},"properties":{}},
	  {"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0,0],[1,0],[0,1],[0,0]]]},
	   "properties":{}}
	]}`
	fc, err := Unmarshal([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	objs, err := fc.Objects(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("objects: %d (polygon feature must be skipped)", len(objs))
	}
	if objs[0].TypeWeight != 3 || objs[0].ObjWeight != 0.5 || objs[0].Type != 7 {
		t.Fatalf("weights not read: %+v", objs[0])
	}
	if objs[1].TypeWeight != 1 || objs[1].ObjWeight != 1 {
		t.Fatalf("defaults not applied: %+v", objs[1])
	}
	if objs[1].ID != 1 {
		t.Fatalf("IDs not sequential: %+v", objs[1])
	}
}

func TestFromMOVD(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	m := &core.MOVD{
		Mode:   core.RRB,
		Bounds: bounds,
		OVRs: []core.OVR{
			{
				Region: geom.NewPolygon(geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(0, 5)),
				MBR:    geom.NewRect(geom.Pt(0, 0), geom.Pt(5, 5)),
				POIs:   []core.Object{{ID: 1, Type: 0}},
			},
			{
				MBR:  geom.NewRect(geom.Pt(5, 5), geom.Pt(10, 10)),
				POIs: []core.Object{{ID: 2, Type: 1}},
			},
		},
	}
	fc := FromMOVD(m)
	if len(fc.Features) != 2 {
		t.Fatalf("features: %d", len(fc.Features))
	}
	if fc.Features[0].Properties["boundary"] != "region" ||
		fc.Features[1].Properties["boundary"] != "mbr" {
		t.Fatalf("boundary properties wrong: %+v", fc.Features)
	}
	pg := exterior(t, &fc.Features[1])
	if math.Abs(pg.Area()-25) > 1e-9 {
		t.Fatalf("MBR polygon area %v", pg.Area())
	}
}
