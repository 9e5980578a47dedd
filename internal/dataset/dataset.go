// Package dataset provides the POI workloads for the experiment harness.
//
// The paper evaluates on five GeoNames extracts for the United States
// (streams, churches, schools, populated places, buildings). Those files are
// not redistributable and the build is offline, so this package generates
// synthetic point sets with the same cardinalities from a seeded
// clustered-settlement model: a Gaussian mixture over a continental-scale
// rectangle with a uniform background. The mixture reproduces the spatial
// skew (dense metros, sparse countryside) that drives Voronoi cell
// complexity and overlap fan-out, which is what the Fig 8–14 comparisons
// depend on. CSV import/export is provided for real data.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"molq/internal/geom"
)

// The five paper object types and their GeoNames cardinalities (Sec 6).
const (
	STM  = "STM"  // streams
	CH   = "CH"   // churches
	SCH  = "SCH"  // schools
	PPL  = "PPL"  // populated places
	BLDG = "BLDG" // buildings
)

// PaperTypes lists the object types in the order the paper composes 𝔼
// (two types ⇒ {STM, CH}, three ⇒ {STM, CH, SCH}, …).
var PaperTypes = []string{STM, CH, SCH, PPL, BLDG}

// PaperSizes records the full GeoNames extract sizes.
var PaperSizes = map[string]int{
	STM:  230762,
	CH:   225553,
	SCH:  200996,
	PPL:  166788,
	BLDG: 110289,
}

// DefaultBounds is the synthetic continental extent (arbitrary units, aspect
// ratio close to the conterminous US).
var DefaultBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(10000, 6000))

// Config parameterises the synthetic generator.
type Config struct {
	Bounds geom.Rect
	// Clusters is the number of settlement centers (default 48).
	Clusters int
	// ClusterFraction is the share of points drawn from clusters rather
	// than the uniform background (default 0.7).
	ClusterFraction float64
	// Seed drives all randomness; generation is deterministic per seed.
	Seed int64
}

func (c Config) norm() Config {
	if c.Bounds.IsEmpty() || c.Bounds.Area() == 0 {
		// The zero Rect is a degenerate point; treat it (and any other
		// zero-area rectangle) as "use the default extent".
		c.Bounds = DefaultBounds
	}
	if c.Clusters <= 0 {
		c.Clusters = 48
	}
	if c.ClusterFraction <= 0 || c.ClusterFraction > 1 {
		c.ClusterFraction = 0.7
	}
	return c
}

// Generate produces n points under the clustered-settlement model. Distinct
// type names with the same seed share cluster centers (as real POI types
// share cities) but draw independent samples.
func Generate(cfg Config, typeName string, n int) []geom.Point {
	cfg = cfg.norm()
	// Cluster centers depend only on the seed so all types agree on where
	// the "cities" are.
	centerRng := rand.New(rand.NewSource(cfg.Seed))
	type cluster struct {
		c      geom.Point
		sigma  float64
		weight float64
	}
	clusters := make([]cluster, cfg.Clusters)
	totalW := 0.0
	for i := range clusters {
		clusters[i] = cluster{
			c: geom.Pt(
				cfg.Bounds.Min.X+centerRng.Float64()*cfg.Bounds.Width(),
				cfg.Bounds.Min.Y+centerRng.Float64()*cfg.Bounds.Height(),
			),
			sigma: (0.005 + 0.03*centerRng.Float64()) *
				math.Max(cfg.Bounds.Width(), cfg.Bounds.Height()),
			// Zipf-ish city sizes.
			weight: 1 / float64(i+1),
		}
		totalW += clusters[i].weight
	}
	r := rand.New(rand.NewSource(cfg.Seed ^ hashName(typeName)))
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		var p geom.Point
		if r.Float64() < cfg.ClusterFraction {
			// Pick a cluster proportional to weight.
			pick := r.Float64() * totalW
			ci := 0
			for acc := clusters[0].weight; acc < pick && ci < len(clusters)-1; {
				ci++
				acc += clusters[ci].weight
			}
			cl := clusters[ci]
			p = geom.Pt(
				cl.c.X+r.NormFloat64()*cl.sigma,
				cl.c.Y+r.NormFloat64()*cl.sigma,
			)
		} else {
			p = geom.Pt(
				cfg.Bounds.Min.X+r.Float64()*cfg.Bounds.Width(),
				cfg.Bounds.Min.Y+r.Float64()*cfg.Bounds.Height(),
			)
		}
		if cfg.Bounds.Contains(p) {
			pts = append(pts, p)
		}
	}
	return pts
}

// hashName folds a type name into a seed offset (FNV-1a).
func hashName(s string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h & 0x7FFFFFFFFFFFFFFF)
}

// Record is one CSV row: a location plus optional weights (default 1).
type Record struct {
	X, Y       float64
	TypeWeight float64
	ObjWeight  float64
}

// ReadRecords parses "x,y[,type_weight[,obj_weight]]" lines. Blank lines and
// lines starting with '#' are skipped. Missing weights default to 1.
func ReadRecords(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) < 2 || len(fields) > 4 {
			return nil, fmt.Errorf("dataset: line %d: want 2-4 fields, got %d", lineNo, len(fields))
		}
		rec := Record{TypeWeight: 1, ObjWeight: 1}
		var err error
		if rec.X, err = strconv.ParseFloat(strings.TrimSpace(fields[0]), 64); err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad x: %w", lineNo, err)
		}
		if rec.Y, err = strconv.ParseFloat(strings.TrimSpace(fields[1]), 64); err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad y: %w", lineNo, err)
		}
		if len(fields) >= 3 {
			if rec.TypeWeight, err = strconv.ParseFloat(strings.TrimSpace(fields[2]), 64); err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad type weight: %w", lineNo, err)
			}
		}
		if len(fields) == 4 {
			if rec.ObjWeight, err = strconv.ParseFloat(strings.TrimSpace(fields[3]), 64); err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad object weight: %w", lineNo, err)
			}
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteRecords emits records in the format ReadRecords parses.
func WriteRecords(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# x,y,type_weight,obj_weight"); err != nil {
		return err
	}
	for _, r := range recs {
		if _, err := fmt.Fprintf(bw, "%g,%g,%g,%g\n", r.X, r.Y, r.TypeWeight, r.ObjWeight); err != nil {
			return err
		}
	}
	return bw.Flush()
}
