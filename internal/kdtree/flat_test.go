package kdtree

import (
	"math"
	"math/rand"
	"testing"

	"molq/internal/geom"
)

// TestFlatNearest2MatchesTree cross-checks the SoA tree against a linear
// scan on random and adversarial (duplicate, collinear) point sets: same
// winner index up to distance ties, bit-equal squared distance.
func TestFlatNearest2MatchesTree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 17, 400} {
		pts := make([]geom.Point, n)
		for i := range pts {
			switch i % 5 {
			case 3: // duplicates
				pts[i] = pts[i/2]
			case 4: // collinear
				pts[i] = geom.Pt(float64(i), float64(i))
			default:
				pts[i] = geom.Pt(r.Float64()*100, r.Float64()*100)
			}
		}
		flat := BuildFlat(pts)
		if len(flat.ids) != n {
			t.Fatalf("n=%d: Len=%d", n, len(flat.ids))
		}
		for probe := 0; probe < 200; probe++ {
			q := geom.Pt(r.Float64()*120-10, r.Float64()*120-10)
			wantI, _ := bruteNearest(pts, q)
			gotI, gotD2 := flat.Nearest2(q.X, q.Y)
			if n == 0 {
				if gotI != -1 || !math.IsInf(gotD2, 1) {
					t.Fatalf("empty tree: got (%d, %g)", gotI, gotD2)
				}
				continue
			}
			if wantD2 := q.Dist2(pts[wantI]); gotD2 != wantD2 {
				t.Fatalf("n=%d q=%v: flat d2=%g vs scan d2=%g", n, q, gotD2, wantD2)
			}
			// Indices may differ only on exact distance ties.
			if int(gotI) != wantI && q.Dist2(pts[gotI]) != q.Dist2(pts[wantI]) {
				t.Fatalf("n=%d q=%v: flat idx %d (d2 %g) vs scan idx %d (d2 %g)",
					n, q, gotI, q.Dist2(pts[gotI]), wantI, q.Dist2(pts[wantI]))
			}
		}
	}
}

// TestBuildFlatDoesNotRetainInput: mutating the input after BuildFlat must
// not change query results (the SoA arrays are gathered copies).
func TestBuildFlatDoesNotRetainInput(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(9, 9)}
	flat := BuildFlat(pts)
	pts[0] = geom.Pt(100, 100)
	i, d2 := flat.Nearest2(0, 0)
	if i != 0 || d2 != 2 {
		t.Fatalf("got (%d, %g), want (0, 2): input mutation leaked into tree", i, d2)
	}
}

func BenchmarkFlatNearest2(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	pts := make([]geom.Point, 100000)
	for i := range pts {
		pts[i] = geom.Pt(r.Float64()*1000, r.Float64()*1000)
	}
	flat := BuildFlat(pts)
	qs := make([]geom.Point, 1024)
	for i := range qs {
		qs[i] = geom.Pt(r.Float64()*1000, r.Float64()*1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i&1023]
		flat.Nearest2(q.X, q.Y)
	}
}
