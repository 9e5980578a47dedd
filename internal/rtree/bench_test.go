package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"molq/internal/geom"
)

func benchEntries(n int) []Entry {
	r := rand.New(rand.NewSource(9))
	return randomEntries(r, n, 10000)
}

func BenchmarkBulkLoad(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		es := benchEntries(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if tr := Bulk(es, 16); size(tr) != n {
					b.Fatal("bad build")
				}
			}
		})
	}
}

func BenchmarkSearch(b *testing.B) {
	es := benchEntries(100000)
	tr := Bulk(es, 16)
	r := rand.New(rand.NewSource(10))
	queries := make([]geom.Rect, 1024)
	for i := range queries {
		x, y := r.Float64()*10000, r.Float64()*10000
		queries[i] = geom.NewRect(geom.Pt(x, y), geom.Pt(x+100, y+100))
	}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		tr.Search(queries[i%len(queries)], func(Entry) bool {
			hits++
			return true
		})
	}
	_ = hits
}
