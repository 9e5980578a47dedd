// Package rtree implements a static R-tree over axis-aligned rectangles,
// bulk-loaded with Sort-Tile-Recursive packing. The MOLQ overlap operation
// uses a plane sweep (Sec 5.2), but an R-tree over OVR MBRs is the natural
// alternative candidate-detection structure — the ablation benchmark
// compares the two — and the paper's disk-based future work (Sec 8) assumes
// exactly this kind of index.
package rtree

import (
	"math"
	"sort"

	"molq/internal/geom"
)

// Entry is one indexed rectangle with caller-defined identity.
type Entry struct {
	Box geom.Rect
	ID  int32
}

// DefaultMaxEntries is M, the node capacity.
const DefaultMaxEntries = 16

type node struct {
	leaf     bool
	box      geom.Rect
	entries  []Entry // leaf payload
	children []*node // internal children
}

// Tree is an immutable R-tree. The zero value is not usable; construct with
// Bulk.
type Tree struct {
	root *node
}

// Bulk builds a tree over entries with Sort-Tile-Recursive packing and node
// capacity maxEntries (values below 4 mean DefaultMaxEntries). The OVR sets
// of an MOVD are static once built, so the tree is never updated.
func Bulk(entries []Entry, maxEntries int) *Tree {
	if maxEntries <= 3 {
		maxEntries = DefaultMaxEntries
	}
	if len(entries) == 0 {
		return &Tree{root: &node{leaf: true, box: geom.EmptyRect()}}
	}
	level := strPack(entries, maxEntries)
	for len(level) > 1 {
		level = strPackNodes(level, maxEntries)
	}
	return &Tree{root: level[0]}
}

func strPack(entries []Entry, m int) []*node {
	es := make([]Entry, len(entries))
	copy(es, entries)
	nLeaves := (len(es) + m - 1) / m
	nSlices := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	sliceCap := nSlices * m
	sort.Slice(es, func(i, j int) bool { return es[i].Box.Center().X < es[j].Box.Center().X })
	var leaves []*node
	for s := 0; s < len(es); s += sliceCap {
		end := min(s+sliceCap, len(es))
		slice := es[s:end]
		sort.Slice(slice, func(i, j int) bool { return slice[i].Box.Center().Y < slice[j].Box.Center().Y })
		for o := 0; o < len(slice); o += m {
			leafEnd := min(o+m, len(slice))
			leaf := &node{leaf: true, box: geom.EmptyRect()}
			leaf.entries = append(leaf.entries, slice[o:leafEnd]...)
			for _, e := range leaf.entries {
				leaf.box = leaf.box.Union(e.Box)
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

func strPackNodes(nodes []*node, m int) []*node {
	nParents := (len(nodes) + m - 1) / m
	nSlices := int(math.Ceil(math.Sqrt(float64(nParents))))
	sliceCap := nSlices * m
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].box.Center().X < nodes[j].box.Center().X })
	var parents []*node
	for s := 0; s < len(nodes); s += sliceCap {
		end := min(s+sliceCap, len(nodes))
		slice := nodes[s:end]
		sort.Slice(slice, func(i, j int) bool { return slice[i].box.Center().Y < slice[j].box.Center().Y })
		for o := 0; o < len(slice); o += m {
			pEnd := min(o+m, len(slice))
			p := &node{box: geom.EmptyRect()}
			p.children = append(p.children, slice[o:pEnd]...)
			for _, c := range p.children {
				p.box = p.box.Union(c.box)
			}
			parents = append(parents, p)
		}
	}
	return parents
}

// --- Queries ---

// Search calls fn for every entry whose box intersects query (closed
// semantics, matching geom.Rect.Intersects). Iteration stops early when fn
// returns false.
func (t *Tree) Search(query geom.Rect, fn func(Entry) bool) {
	search(t.root, query, fn)
}

func search(n *node, query geom.Rect, fn func(Entry) bool) bool {
	if !n.box.Intersects(query) {
		return true
	}
	if n.leaf {
		for _, e := range n.entries {
			if e.Box.Intersects(query) {
				if !fn(e) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !search(c, query, fn) {
			return false
		}
	}
	return true
}
