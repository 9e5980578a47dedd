// Package geojson reads and writes the subset of GeoJSON (RFC 7946) the
// MOLQ toolchain needs: Point features for POIs (with optional weight
// properties) and Polygon/MultiPolygon features for Voronoi cells, OVRs and
// query results. It lets the library interoperate with standard GIS tooling
// (QGIS, kepler.gl, geojson.io) without external dependencies.
//
// Coordinates are emitted verbatim in the library's planar coordinate
// system; combine with package-level projection helpers in internal/dataset
// when the source data is lon/lat.
package geojson

import (
	"encoding/json"
	"fmt"

	"molq/internal/core"
	"molq/internal/geom"
)

// Feature is one GeoJSON feature.
type Feature struct {
	Type       string         `json:"type"`
	Geometry   Geometry       `json:"geometry"`
	Properties map[string]any `json:"properties,omitempty"`
}

// Geometry is a GeoJSON geometry restricted to the types this package
// handles.
type Geometry struct {
	Type string `json:"type"`
	// Coordinates is kept raw and interpreted per Type.
	Coordinates json.RawMessage `json:"coordinates"`
}

// FeatureCollection is the top-level GeoJSON document.
type FeatureCollection struct {
	Type     string    `json:"type"`
	Features []Feature `json:"features"`
}

// NewFeatureCollection returns an empty collection.
func NewFeatureCollection() *FeatureCollection {
	return &FeatureCollection{Type: "FeatureCollection"}
}

// PointFeature builds a Point feature.
func PointFeature(p geom.Point, props map[string]any) Feature {
	coords, _ := json.Marshal([2]float64{p.X, p.Y})
	return Feature{
		Type:       "Feature",
		Geometry:   Geometry{Type: "Point", Coordinates: coords},
		Properties: props,
	}
}

// PolygonFeature builds a Polygon feature from a single exterior ring. The
// ring is closed per RFC 7946 (first position repeated at the end).
func PolygonFeature(pg geom.Polygon, props map[string]any) Feature {
	ring := make([][2]float64, 0, len(pg)+1)
	for _, p := range pg {
		ring = append(ring, [2]float64{p.X, p.Y})
	}
	if len(pg) > 0 {
		ring = append(ring, [2]float64{pg[0].X, pg[0].Y})
	}
	coords, _ := json.Marshal([][][2]float64{ring})
	return Feature{
		Type:       "Feature",
		Geometry:   Geometry{Type: "Polygon", Coordinates: coords},
		Properties: props,
	}
}

// Add appends a feature.
func (fc *FeatureCollection) Add(f Feature) { fc.Features = append(fc.Features, f) }

// Marshal serialises the collection.
func (fc *FeatureCollection) Marshal() ([]byte, error) {
	fc.Type = "FeatureCollection"
	return json.MarshalIndent(fc, "", "  ")
}

// Unmarshal parses a FeatureCollection document.
func Unmarshal(data []byte) (*FeatureCollection, error) {
	var fc FeatureCollection
	if err := json.Unmarshal(data, &fc); err != nil {
		return nil, fmt.Errorf("geojson: %w", err)
	}
	if fc.Type != "FeatureCollection" {
		return nil, fmt.Errorf("geojson: top-level type %q, want FeatureCollection", fc.Type)
	}
	return &fc, nil
}

// Point extracts the position of a Point feature.
func (f *Feature) Point() (geom.Point, error) {
	if f.Geometry.Type != "Point" {
		return geom.Point{}, fmt.Errorf("geojson: geometry is %q, want Point", f.Geometry.Type)
	}
	var c [2]float64
	if err := json.Unmarshal(f.Geometry.Coordinates, &c); err != nil {
		return geom.Point{}, fmt.Errorf("geojson: bad Point coordinates: %w", err)
	}
	return geom.Pt(c[0], c[1]), nil
}

// numProp reads a numeric property with a default.
func (f *Feature) numProp(key string, def float64) float64 {
	if f.Properties == nil {
		return def
	}
	switch v := f.Properties[key].(type) {
	case float64:
		return v
	case json.Number:
		if fv, err := v.Float64(); err == nil {
			return fv
		}
	}
	return def
}

// Objects converts the Point features of a collection into a MOLQ object
// set. Weight properties "type_weight" and "obj_weight" default to 1;
// non-Point features are skipped. typeIndex is stamped on every object.
func (fc *FeatureCollection) Objects(typeIndex int) ([]core.Object, error) {
	var out []core.Object
	for i := range fc.Features {
		f := &fc.Features[i]
		if f.Geometry.Type != "Point" {
			continue
		}
		p, err := f.Point()
		if err != nil {
			return nil, fmt.Errorf("geojson: feature %d: %w", i, err)
		}
		out = append(out, core.Object{
			ID:         len(out),
			Type:       typeIndex,
			Loc:        p,
			TypeWeight: f.numProp("type_weight", 1),
			ObjWeight:  f.numProp("obj_weight", 1),
		})
	}
	return out, nil
}

// FromMOVD exports an MOVD as a FeatureCollection: one Polygon feature per
// RRB OVR (or the MBR rectangle for MBRB diagrams) carrying the combination
// key and POI count as properties.
func FromMOVD(m *core.MOVD) *FeatureCollection {
	fc := NewFeatureCollection()
	for i := range m.OVRs {
		o := &m.OVRs[i]
		props := map[string]any{
			"combination": o.Key(),
			"pois":        len(o.POIs),
		}
		pg := o.Region
		if pg.IsEmpty() {
			pg = geom.RectPolygon(o.MBR)
			props["boundary"] = "mbr"
		} else {
			props["boundary"] = "region"
		}
		fc.Add(PolygonFeature(pg, props))
	}
	return fc
}
