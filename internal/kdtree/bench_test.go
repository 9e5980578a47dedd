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
				if tr := Build(pts); tr.Len() != n {
					b.Fatal("bad build")
				}
			}
		})
	}
}

func BenchmarkNearest(b *testing.B) {
	pts := benchPoints(100000)
	kd := Build(pts)
	r := rand.New(rand.NewSource(22))
	queries := make([]geom.Point, 1024)
	for i := range queries {
		queries[i] = geom.Pt(r.Float64()*10000, r.Float64()*10000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kd.Nearest(queries[i%len(queries)])
	}
}

func BenchmarkKNearest(b *testing.B) {
	pts := benchPoints(100000)
	kd := Build(pts)
	r := rand.New(rand.NewSource(23))
	queries := make([]geom.Point, 1024)
	for i := range queries {
		queries[i] = geom.Pt(r.Float64()*10000, r.Float64()*10000)
	}
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := kd.KNearest(queries[i%len(queries)], k); len(got) != k {
					b.Fatal("short result")
				}
			}
		})
	}
}
