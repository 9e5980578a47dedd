package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"molq/internal/geom"
)

// GeoNamesRecord is one row of a GeoNames gazetteer dump (the data source of
// the paper's evaluation). Only the fields the MOLQ pipeline needs are kept.
type GeoNamesRecord struct {
	ID          int64
	Name        string
	Lat, Lon    float64
	FeatureCode string // e.g. STM, CH, SCH, PPL, BLDG
}

// ReadGeoNames parses the official GeoNames tab-separated dump format
// (allCountries.txt / US.txt): 19 columns, of which this reader uses
// geonameid (0), name (1), latitude (4), longitude (5) and feature code (7).
// keep filters by feature code; nil keeps everything. Blank lines and lines
// starting with '#' are skipped; malformed rows abort with a line-numbered
// error so silent data loss cannot occur.
func ReadGeoNames(r io.Reader, keep map[string]bool) ([]GeoNamesRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024*1024)
	var out []GeoNamesRecord
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cols := strings.Split(line, "\t")
		if len(cols) < 8 {
			return nil, fmt.Errorf("dataset: geonames line %d: %d columns, want ≥8", lineNo, len(cols))
		}
		code := cols[7]
		if keep != nil && !keep[code] {
			continue
		}
		id, err := strconv.ParseInt(cols[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: geonames line %d: bad id: %w", lineNo, err)
		}
		lat, err := strconv.ParseFloat(cols[4], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: geonames line %d: bad latitude: %w", lineNo, err)
		}
		lon, err := strconv.ParseFloat(cols[5], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: geonames line %d: bad longitude: %w", lineNo, err)
		}
		if lat < -90 || lat > 90 || lon < -180 || lon > 180 {
			return nil, fmt.Errorf("dataset: geonames line %d: coordinates out of range (%v, %v)", lineNo, lat, lon)
		}
		out = append(out, GeoNamesRecord{
			ID: id, Name: cols[1], Lat: lat, Lon: lon, FeatureCode: code,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// GroupByFeatureCode splits records into per-code slices (the object sets of
// the paper's 𝔼).
func GroupByFeatureCode(recs []GeoNamesRecord) map[string][]GeoNamesRecord {
	out := make(map[string][]GeoNamesRecord)
	for _, r := range recs {
		out[r.FeatureCode] = append(out[r.FeatureCode], r)
	}
	return out
}

// kmPerDegree is the meridian arc length of one degree of latitude.
const kmPerDegree = 111.32

// Projection maps geographic coordinates to the planar system the library
// computes in. Equirectangular about a reference point: accurate to well
// under 1% across a conterminous-US-sized extent, which comfortably exceeds
// the fidelity the distance comparisons need.
type Projection struct {
	RefLat, RefLon float64
	cosRef         float64
}

// NewProjection creates an equirectangular projection centered at the given
// reference coordinates (units: kilometres).
func NewProjection(refLat, refLon float64) Projection {
	return Projection{RefLat: refLat, RefLon: refLon, cosRef: math.Cos(refLat * math.Pi / 180)}
}

// ProjectionFor centers a projection on the centroid of the records.
func ProjectionFor(recs []GeoNamesRecord) Projection {
	if len(recs) == 0 {
		return NewProjection(0, 0)
	}
	var lat, lon float64
	for _, r := range recs {
		lat += r.Lat
		lon += r.Lon
	}
	n := float64(len(recs))
	return NewProjection(lat/n, lon/n)
}

// Project converts (lat, lon) to planar kilometres.
func (p Projection) Project(lat, lon float64) geom.Point {
	return geom.Pt(
		(lon-p.RefLon)*kmPerDegree*p.cosRef,
		(lat-p.RefLat)*kmPerDegree,
	)
}
