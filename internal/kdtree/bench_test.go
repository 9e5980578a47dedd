package kdtree

import (
	"fmt"
	"math/rand"
	"testing"

	"molq/internal/geom"
)

func benchPoints(n int) []geom.Point {
	r := rand.New(rand.NewSource(21))
	return randomPoints(r, n, 10000)
}

func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		pts := benchPoints(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if tr := BuildFlat(pts); len(tr.ids) != n {
					b.Fatal("bad build")
				}
			}
		})
	}
}
