package rtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"molq/internal/geom"
)

func randomEntries(r *rand.Rand, n int, span float64) []Entry {
	es := make([]Entry, n)
	for i := range es {
		x := r.Float64() * span
		y := r.Float64() * span
		es[i] = Entry{
			Box: geom.NewRect(geom.Pt(x, y), geom.Pt(x+r.Float64()*span/20, y+r.Float64()*span/20)),
			ID:  int32(i),
		}
	}
	return es
}

func bruteSearch(es []Entry, q geom.Rect) map[int32]bool {
	out := map[int32]bool{}
	for _, e := range es {
		if e.Box.Intersects(q) {
			out[e.ID] = true
		}
	}
	return out
}

func treeSearch(t *Tree, q geom.Rect) map[int32]bool {
	out := map[int32]bool{}
	t.Search(q, func(e Entry) bool {
		out[e.ID] = true
		return true
	})
	return out
}

// size counts the entries stored in the tree's leaves.
func size(t *Tree) int {
	var rec func(n *node) int
	rec = func(n *node) int {
		if n.leaf {
			return len(n.entries)
		}
		c := 0
		for _, ch := range n.children {
			c += rec(ch)
		}
		return c
	}
	return rec(t.root)
}

// height is 1 for a root leaf.
func height(t *Tree) int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

func sameSet(a, b map[int32]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestEmpty(t *testing.T) {
	tr := Bulk(nil, 0)
	if size(tr) != 0 || height(tr) != 1 {
		t.Fatalf("empty tree: len=%d height=%d", size(tr), height(tr))
	}
	if got := treeSearch(tr, geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))); len(got) != 0 {
		t.Fatalf("search on empty tree: %v", got)
	}
}

func TestBulkSearchMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	es := randomEntries(r, 5000, 1000)
	tr := Bulk(es, 16)
	if size(tr) != len(es) {
		t.Fatalf("Len=%d", size(tr))
	}
	for q := 0; q < 300; q++ {
		x, y := r.Float64()*1000, r.Float64()*1000
		query := geom.NewRect(geom.Pt(x, y), geom.Pt(x+r.Float64()*120, y+r.Float64()*120))
		if !sameSet(treeSearch(tr, query), bruteSearch(es, query)) {
			t.Fatalf("query %v mismatch", query)
		}
	}
}

func TestQuickBulkMatchesBruteForce(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		es := randomEntries(r, int(n)+1, 100)
		blk := Bulk(es, 4)
		q := geom.NewRect(geom.Pt(r.Float64()*100, r.Float64()*100),
			geom.Pt(r.Float64()*100, r.Float64()*100))
		return sameSet(treeSearch(blk, q), bruteSearch(es, q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchEarlyStop(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	tr := Bulk(randomEntries(r, 500, 100), 8)
	count := 0
	tr.Search(geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100)), func(Entry) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestHeightLogarithmic(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	es := randomEntries(r, 10000, 1000)
	blk := Bulk(es, 16)
	if h := height(blk); h > 5 {
		t.Fatalf("bulk height %d too large", h)
	}
}

func TestNodeBoxesCoverEntries(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	es := randomEntries(r, 3000, 500)
	tr := Bulk(es, 8)
	var check func(n *node) geom.Rect
	check = func(n *node) geom.Rect {
		got := geom.EmptyRect()
		if n.leaf {
			for _, e := range n.entries {
				got = got.Union(e.Box)
			}
		} else {
			for _, c := range n.children {
				got = got.Union(check(c))
			}
		}
		if !n.box.ContainsRect(got) {
			t.Fatalf("node box %v does not cover content %v", n.box, got)
		}
		return got
	}
	check(tr.root)
}

func TestPointEntries(t *testing.T) {
	// Degenerate boxes (points) must work.
	var es []Entry
	for i := 0; i < 100; i++ {
		p := geom.Pt(float64(i), float64(i%10))
		es = append(es, Entry{Box: geom.Rect{Min: p, Max: p}, ID: int32(i)})
	}
	tr := Bulk(es, 5)
	got := treeSearch(tr, geom.NewRect(geom.Pt(50, 0), geom.Pt(59, 9)))
	if len(got) != 10 {
		t.Fatalf("point query found %d, want 10", len(got))
	}
}
