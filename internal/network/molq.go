package network

import (
	"fmt"
	"math"
	"sort"

	"molq/internal/geom"
	"molq/internal/voronoi"
)

// FromDelaunay builds a synthetic planar road network over the given
// intersections: the edges are the Delaunay triangulation edges weighted by
// Euclidean length — a standard random-road-network model (connected,
// planar, realistic degree distribution).
func FromDelaunay(coords []geom.Point) (*Graph, error) {
	g := NewGraph(coords)
	edges, err := voronoi.DelaunayEdges(coords)
	if err != nil {
		return nil, err
	}
	for _, e := range edges {
		w := coords[e[0]].Dist(coords[e[1]])
		if w == 0 {
			continue // coincident intersections
		}
		if err := g.AddEdge(int(e[0]), int(e[1]), w); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// TypeSites describes one object type on the network: the nodes hosting its
// objects and the type weight w^t applied to network distance.
type TypeSites struct {
	Nodes  []int
	Weight float64
}

// Result is the answer to a node-candidate network MOLQ.
type Result struct {
	Node int
	Cost float64
	// PerType[i] is the weighted network distance from Node to the nearest
	// site of type i.
	PerType []float64
}

// SolveNodeMOLQ finds the graph node minimising Σ_i w_i · netdist(v, P_i)
// where netdist is the distance to the nearest site of type i — the
// network analogue of the paper's MOLQ with candidates restricted to graph
// vertices (as in the min-dist location selection literature the paper
// surveys). It runs one multi-source Dijkstra per type: O(T·(E+V) log V).
// Nodes that cannot reach every type are excluded; if no node qualifies an
// error is returned.
func SolveNodeMOLQ(g *Graph, types []TypeSites) (Result, error) {
	if len(types) == 0 {
		return Result{}, fmt.Errorf("network: no object types")
	}
	n := g.NumNodes()
	if n == 0 {
		return Result{}, fmt.Errorf("network: empty graph")
	}
	total := make([]float64, n)
	perType := make([][]float64, len(types))
	for ti, ts := range types {
		if len(ts.Nodes) == 0 {
			return Result{}, fmt.Errorf("network: type %d has no sites", ti)
		}
		if ts.Weight <= 0 {
			return Result{}, fmt.Errorf("network: type %d has non-positive weight", ti)
		}
		dist, _ := g.MultiSourceDijkstra(ts.Nodes)
		perType[ti] = dist
		for v := range total {
			total[v] += ts.Weight * dist[v]
		}
	}
	best, bestCost := -1, math.Inf(1)
	for v, c := range total {
		if c < bestCost {
			best, bestCost = v, c
		}
	}
	if best < 0 || math.IsInf(bestCost, 1) {
		return Result{}, fmt.Errorf("network: no node reaches every object type")
	}
	res := Result{Node: best, Cost: bestCost, PerType: make([]float64, len(types))}
	for ti := range types {
		res.PerType[ti] = types[ti].Weight * perType[ti][best]
	}
	return res, nil
}

// RankNodes returns the k best candidate nodes by the same objective,
// ascending by cost (useful for presenting alternatives).
func RankNodes(g *Graph, types []TypeSites, k int) ([]Result, error) {
	if k <= 0 {
		return nil, nil
	}
	if len(types) == 0 {
		return nil, fmt.Errorf("network: no object types")
	}
	n := g.NumNodes()
	total := make([]float64, n)
	perType := make([][]float64, len(types))
	for ti, ts := range types {
		if len(ts.Nodes) == 0 {
			return nil, fmt.Errorf("network: type %d has no sites", ti)
		}
		if ts.Weight <= 0 {
			return nil, fmt.Errorf("network: type %d has non-positive weight", ti)
		}
		dist, _ := g.MultiSourceDijkstra(ts.Nodes)
		perType[ti] = dist
		for v := range total {
			total[v] += ts.Weight * dist[v]
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return total[order[a]] < total[order[b]] })
	var out []Result
	for _, v := range order {
		if math.IsInf(total[v], 1) {
			break
		}
		r := Result{Node: v, Cost: total[v], PerType: make([]float64, len(types))}
		for ti := range types {
			r.PerType[ti] = types[ti].Weight * perType[ti][v]
		}
		out = append(out, r)
		if len(out) == k {
			break
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("network: no node reaches every object type")
	}
	return out, nil
}
