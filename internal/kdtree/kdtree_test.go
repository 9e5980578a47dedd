package kdtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"molq/internal/geom"
)

func randomPoints(r *rand.Rand, n int, span float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(r.Float64()*span, r.Float64()*span)
	}
	return pts
}

func bruteNearest(pts []geom.Point, q geom.Point) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i, p := range pts {
		if d := q.Dist(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// nearest queries tr and returns the winner and its (unsquared) distance.
func nearest(tr *FlatTree, q geom.Point) (int, float64) {
	i, d2 := tr.Nearest2(q.X, q.Y)
	return int(i), math.Sqrt(d2)
}

func TestEmptyTree(t *testing.T) {
	tr := BuildFlat(nil)
	if i, d := nearest(tr, geom.Pt(0, 0)); i != -1 || !math.IsInf(d, 1) {
		t.Fatalf("empty nearest: %d %v", i, d)
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := randomPoints(r, 5000, 1000)
	tr := BuildFlat(pts)
	for trial := 0; trial < 1000; trial++ {
		q := geom.Pt(r.Float64()*1200-100, r.Float64()*1200-100)
		wi, wd := bruteNearest(pts, q)
		gi, gd := nearest(tr, q)
		if math.Abs(gd-wd) > 1e-9 {
			t.Fatalf("q=%v: got %d@%v want %d@%v", q, gi, gd, wi, wd)
		}
	}
}

func TestDuplicateCoordinates(t *testing.T) {
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Pt(float64(i%5), float64(i%3)) // heavy duplication
	}
	tr := BuildFlat(pts)
	i, d := nearest(tr, geom.Pt(2, 1))
	if d != 0 || pts[i] != geom.Pt(2, 1) {
		t.Fatalf("duplicate grid nearest: %d %v", i, d)
	}
}

func TestQuickNearest(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		pts := randomPoints(r, int(n)+1, 50)
		tr := BuildFlat(pts)
		q := geom.Pt(r.Float64()*60-5, r.Float64()*60-5)
		_, wd := bruteNearest(pts, q)
		_, gd := nearest(tr, q)
		return math.Abs(gd-wd) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClusteredSkew(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, 4000)
	for i := range pts {
		pts[i] = geom.Pt(500+r.NormFloat64()*2, 500+r.NormFloat64()*2)
	}
	tr := BuildFlat(pts)
	for trial := 0; trial < 300; trial++ {
		q := geom.Pt(r.Float64()*1000, r.Float64()*1000)
		_, wd := bruteNearest(pts, q)
		_, gd := nearest(tr, q)
		if math.Abs(gd-wd) > 1e-9 {
			t.Fatalf("clustered q=%v: %v vs %v", q, gd, wd)
		}
	}
}
