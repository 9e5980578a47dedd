// Command vdsvg renders Voronoi diagrams and overlapped Voronoi diagrams
// (MOVDs) to SVG for visual inspection.
//
// Usage:
//
//	vdsvg [-o out.svg] [-n 40] [-types 2] [-seed 1] [-mode rrb|mbrb] [-width 900]
//
// It generates -types synthetic POI sets of -n objects each, overlaps their
// Voronoi diagrams, and draws the resulting OVRs (RRB: exact convex regions;
// MBRB: bounding rectangles) with the generator points on top.
package main

import (
	"flag"
	"fmt"
	"os"

	"molq/internal/core"
	"molq/internal/dataset"
	"molq/internal/geojson"
	"molq/internal/geom"
	"molq/internal/raster"
	"molq/internal/render"
	"molq/internal/voronoi"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vdsvg:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out     = flag.String("o", "movd.svg", "output SVG path")
		n       = flag.Int("n", 40, "objects per type")
		types   = flag.Int("types", 2, "number of object types (1-5)")
		seed    = flag.Int64("seed", 1, "dataset seed")
		modeF   = flag.String("mode", "rrb", "boundary mode: rrb or mbrb")
		width   = flag.Float64("width", 900, "SVG pixel width")
		heatmap = flag.Bool("heatmap", false, "underlay the MWGD cost field and mark the optimal location")
		gjOut   = flag.String("geojson", "", "additionally export the MOVD as GeoJSON to this path")
	)
	flag.Parse()
	if *types < 1 || *types > len(dataset.PaperTypes) {
		return fmt.Errorf("-types must be 1-%d", len(dataset.PaperTypes))
	}
	mode := core.RRB
	if *modeF == "mbrb" {
		mode = core.MBRB
	} else if *modeF != "rrb" {
		return fmt.Errorf("unknown -mode %q", *modeF)
	}

	bounds := dataset.DefaultBounds
	cfg := dataset.Config{Seed: *seed, Bounds: bounds}
	var basics []*core.MOVD
	var allSites [][]geom.Point
	for ti := 0; ti < *types; ti++ {
		pts := dataset.Generate(cfg, dataset.PaperTypes[ti], *n)
		objs := make([]core.Object, len(pts))
		for i, p := range pts {
			objs[i] = core.Object{ID: i, Type: ti, Loc: p, TypeWeight: 1, ObjWeight: 1}
		}
		d, err := voronoi.Compute(pts, bounds)
		if err != nil {
			return err
		}
		m, err := core.FromVoronoi(d, objs, ti, mode)
		if err != nil {
			return err
		}
		basics = append(basics, m)
		allSites = append(allSites, pts)
	}
	movd, _, err := core.Overlap(nil, 1, nil, basics...)
	if err != nil {
		return err
	}

	c := render.NewCanvas(bounds, *width)
	if *heatmap {
		sets := make([][]core.Object, *types)
		for ti := 0; ti < *types; ti++ {
			objs := make([]core.Object, len(allSites[ti]))
			for i, p := range allSites[ti] {
				objs[i] = core.Object{ID: i, Type: ti, Loc: p, TypeWeight: 1, ObjWeight: 1}
			}
			sets[ti] = objs
		}
		field := func(p geom.Point) float64 { return core.MWGD(p, sets, core.Weights{}) }
		c.Heatmap(raster.Sample(field, bounds, 180, 108))
		loc, cost := raster.Minimize(field, bounds, 48, 6)
		c.Circle(loc, 6, render.Style{Fill: "red", Stroke: "white", StrokeWidth: 1.5})
		c.Text(loc.Add(geom.Pt(bounds.Width()*0.01, bounds.Height()*0.01)), 13, "white",
			fmt.Sprintf("optimum (cost %.2f)", cost))
	}
	for i := range movd.OVRs {
		st := render.Style{
			Fill:        render.Color(i),
			Stroke:      "#333333",
			StrokeWidth: 0.6,
			Opacity:     0.35,
		}
		if *heatmap {
			st.Fill = ""
			st.Opacity = 0.9
		}
		if mode == core.RRB {
			c.Polygon(movd.OVRs[i].Region, st)
		} else {
			c.Rect(movd.OVRs[i].MBR, st)
		}
	}
	for ti, pts := range allSites {
		for _, p := range pts {
			c.Circle(p, 2.5, render.Style{Fill: render.Color(ti), Stroke: "black", StrokeWidth: 0.5})
		}
	}
	c.Text(geom.Pt(bounds.Min.X+bounds.Width()*0.01, bounds.Max.Y-bounds.Height()*0.03), 14, "#222",
		fmt.Sprintf("%s MOVD: %d types × %d objects → %d OVRs", mode, *types, *n, movd.Len()))
	if err := c.Save(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d OVRs, %d boundary points)\n", *out, movd.Len(), movd.PointsManaged())
	if *gjOut != "" {
		raw, err := geojson.FromMOVD(movd).Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*gjOut, raw, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *gjOut)
	}
	return nil
}
