package network

import (
	"math"
	"math/rand"
	"testing"

	"molq/internal/geom"
)

// lineGraph builds a path 0-1-2-...-n-1 with unit edges.
func lineGraph(t *testing.T, n int) *Graph {
	t.Helper()
	coords := make([]geom.Point, n)
	for i := range coords {
		coords[i] = geom.Pt(float64(i), 0)
	}
	g := NewGraph(coords)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph([]geom.Point{{}, {X: 1}})
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 5, 1); err == nil {
		t.Fatal("out of range accepted")
	}
	if err := g.AddEdge(0, 1, -2); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := g.AddEdge(0, 1, math.Inf(1)); err == nil {
		t.Fatal("infinite weight accepted")
	}
	if err := g.AddEdge(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || g.NumNodes() != 2 {
		t.Fatalf("counts: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestDijkstraLine(t *testing.T) {
	g := lineGraph(t, 10)
	d := g.Dijkstra(3)
	for i := 0; i < 10; i++ {
		want := math.Abs(float64(i - 3))
		if math.Abs(d[i]-want) > 1e-12 {
			t.Fatalf("d[%d] = %v, want %v", i, d[i], want)
		}
	}
}

// floydWarshall is the brute-force all-pairs ground truth.
func floydWarshall(g *Graph) [][]float64 {
	n := g.NumNodes()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
		g.Neighbors(i, func(v int, w float64) {
			if w < d[i][v] {
				d[i][v] = w
			}
		})
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if nd := d[i][k] + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}

func randomGraph(t *testing.T, r *rand.Rand, n int) *Graph {
	t.Helper()
	coords := make([]geom.Point, n)
	for i := range coords {
		coords[i] = geom.Pt(r.Float64()*100, r.Float64()*100)
	}
	g, err := FromDelaunay(coords)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := randomGraph(t, r, 60)
	fw := floydWarshall(g)
	for s := 0; s < g.NumNodes(); s += 7 {
		d := g.Dijkstra(s)
		for v := range d {
			if math.Abs(d[v]-fw[s][v]) > 1e-9 {
				t.Fatalf("dist(%d,%d) = %v, want %v", s, v, d[v], fw[s][v])
			}
		}
	}
}

func TestMultiSourceEqualsMinOfSingles(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := randomGraph(t, r, 80)
	sources := []int{3, 17, 42}
	multi, owner := g.MultiSourceDijkstra(sources)
	singles := make([][]float64, len(sources))
	for i, s := range sources {
		singles[i] = g.Dijkstra(s)
	}
	for v := 0; v < g.NumNodes(); v++ {
		best, bestI := math.Inf(1), -1
		for i := range sources {
			if singles[i][v] < best {
				best, bestI = singles[i][v], i
			}
		}
		if math.Abs(multi[v]-best) > 1e-9 {
			t.Fatalf("node %d: multi %v vs min singles %v", v, multi[v], best)
		}
		// Owner must achieve the minimum (ties can differ).
		if math.Abs(singles[owner[v]][v]-best) > 1e-9 {
			t.Fatalf("node %d: owner %d not optimal", v, owner[v])
		}
		_ = bestI
	}
}

func TestDisconnectedGraph(t *testing.T) {
	g := NewGraph([]geom.Point{{}, {X: 1}, {X: 10}, {X: 11}})
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	d, owner := g.MultiSourceDijkstra([]int{0})
	if !math.IsInf(d[2], 1) || owner[2] != -1 {
		t.Fatalf("unreachable node: d=%v owner=%d", d[2], owner[2])
	}
	// MOLQ with one type per component fails: no node reaches both.
	_, err := SolveNodeMOLQ(g, []TypeSites{
		{Nodes: []int{0}, Weight: 1},
		{Nodes: []int{2}, Weight: 1},
	})
	if err == nil {
		t.Fatal("cross-component MOLQ should fail")
	}
}

func TestSolveNodeMOLQMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := randomGraph(t, r, 70)
	types := []TypeSites{
		{Nodes: []int{2, 33}, Weight: 2},
		{Nodes: []int{10, 55, 60}, Weight: 1},
		{Nodes: []int{40}, Weight: 3},
	}
	res, err := SolveNodeMOLQ(g, types)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force with Floyd-Warshall.
	fw := floydWarshall(g)
	bestV, bestC := -1, math.Inf(1)
	for v := 0; v < g.NumNodes(); v++ {
		c := 0.0
		for _, ts := range types {
			near := math.Inf(1)
			for _, s := range ts.Nodes {
				if fw[v][s] < near {
					near = fw[v][s]
				}
			}
			c += ts.Weight * near
		}
		if c < bestC {
			bestV, bestC = v, c
		}
	}
	if math.Abs(res.Cost-bestC) > 1e-9 {
		t.Fatalf("cost %v (node %d), brute force %v (node %d)", res.Cost, res.Node, bestC, bestV)
	}
	sum := 0.0
	for _, p := range res.PerType {
		sum += p
	}
	if math.Abs(sum-res.Cost) > 1e-9 {
		t.Fatalf("per-type breakdown %v does not sum to cost %v", res.PerType, res.Cost)
	}
}

func TestRankNodes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randomGraph(t, r, 50)
	types := []TypeSites{
		{Nodes: []int{1, 20}, Weight: 1},
		{Nodes: []int{35}, Weight: 2},
	}
	ranked, err := RankNodes(g, types, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 5 {
		t.Fatalf("got %d ranked nodes", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Cost < ranked[i-1].Cost {
			t.Fatal("ranking not ascending")
		}
	}
	best, err := SolveNodeMOLQ(g, types)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Cost != best.Cost {
		t.Fatalf("rank[0] %v != solve %v", ranked[0].Cost, best.Cost)
	}
	if out, _ := RankNodes(g, types, 0); out != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestSolveNodeMOLQValidation(t *testing.T) {
	g := lineGraph(t, 3)
	if _, err := SolveNodeMOLQ(g, nil); err == nil {
		t.Fatal("no types should fail")
	}
	if _, err := SolveNodeMOLQ(g, []TypeSites{{Nodes: nil, Weight: 1}}); err == nil {
		t.Fatal("empty type should fail")
	}
	if _, err := SolveNodeMOLQ(g, []TypeSites{{Nodes: []int{0}, Weight: 0}}); err == nil {
		t.Fatal("zero weight should fail")
	}
}

func TestFromDelaunayConnectedAndPlanarish(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	g := randomGraph(t, r, 500)
	// Delaunay on n points has at most 3n-6 edges.
	if g.NumEdges() > 3*g.NumNodes()-6 {
		t.Fatalf("too many edges: %d for %d nodes", g.NumEdges(), g.NumNodes())
	}
	// Connected: one Dijkstra reaches everything.
	d := g.Dijkstra(0)
	for v, dv := range d {
		if math.IsInf(dv, 1) {
			t.Fatalf("node %d unreachable", v)
		}
	}
}

func TestNearestNode(t *testing.T) {
	g := lineGraph(t, 5)
	if got := g.NearestNode(geom.Pt(2.4, 1)); got != 2 {
		t.Fatalf("NearestNode = %d", got)
	}
}
