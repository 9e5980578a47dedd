// Package core implements the paper's primary contribution: the Overlapped
// Voronoi Diagram (OVD) model of Section 4 and the plane-sweep overlap
// operation ⊕ of Section 5 with its two boundary strategies, RRB (real
// regions) and MBRB (minimum bounding rectangles).
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"molq/internal/geom"
)

// Object is a spatial object ⟨l, w^t, w^o⟩ (Sec 2.1) with identity. ID is
// unique within its object set; Type is the index of that set within 𝔼.
type Object struct {
	ID         int
	Type       int
	Loc        geom.Point
	TypeWeight float64 // w^t
	ObjWeight  float64 // w^o
}

// WeightFunc is a monotonic weight function ς(x, w): it combines a distance
// (or partially weighted distance) with a weight and must be non-decreasing
// in x for every fixed w.
type WeightFunc func(x, w float64) float64

// Multiplicative is the multiplicatively-based weight function x·w used as
// the default ς^t and ς^o throughout the paper's evaluation.
func Multiplicative(x, w float64) float64 { return x * w }

// Additive is the additively-based weight function x+w, provided for the
// additively weighted Voronoi variant of Fig 5.
func Additive(x, w float64) float64 { return x + w }

// Weights bundles the query's type weight function ς^t and per-type object
// weight functions σ = {ς^o_1, …, ς^o_n}. A nil function means
// Multiplicative.
type Weights struct {
	Type WeightFunc   // ς^t
	Obj  []WeightFunc // σ, indexed by object-set position; nil entries ⇒ Multiplicative
}

// TypeFn returns ς^t, defaulting to Multiplicative.
func (w Weights) TypeFn() WeightFunc {
	if w.Type == nil {
		return Multiplicative
	}
	return w.Type
}

// ObjFn returns ς^o for object-set index i, defaulting to Multiplicative.
func (w Weights) ObjFn(i int) WeightFunc {
	if i < len(w.Obj) && w.Obj[i] != nil {
		return w.Obj[i]
	}
	return Multiplicative
}

// WD computes the weighted distance of Eq 1 from q to object o:
// ς^t(ς^o(d(q, o.l), o.w^o), o.w^t).
func WD(q geom.Point, o Object, w Weights) float64 {
	return w.TypeFn()(w.ObjFn(o.Type)(q.Dist(o.Loc), o.ObjWeight), o.TypeWeight)
}

// WGD computes the weighted group distance of Eq 2: the sum of weighted
// distances from q to each object of the group.
func WGD(q geom.Point, group []Object, w Weights) float64 {
	sum := 0.0
	for _, o := range group {
		sum += WD(q, o, w)
	}
	return sum
}

// MWGD computes the minimum weighted group distance of Eq 3 from q to the
// object sets of sets. Because the sum decomposes per type, the minimum over
// all combinations is the sum of per-type minima, evaluated in linear time.
func MWGD(q geom.Point, sets [][]Object, w Weights) float64 {
	total := 0.0
	for _, set := range sets {
		best := math.Inf(1)
		for _, o := range set {
			if d := WD(q, o, w); d < best {
				best = d
			}
		}
		total += best
	}
	return total
}

// CombinationKey returns a canonical printable identifier for an object
// combination (one object per type) — "type:id;type:id;…" sorted by type
// then id. It appears in GeoJSON output and diagnostics; hot-path
// deduplication uses CombinationDedupKey instead.
func CombinationKey(group []Object) string {
	idx := make([]int, len(group))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if group[idx[a]].Type != group[idx[b]].Type {
			return group[idx[a]].Type < group[idx[b]].Type
		}
		return group[idx[a]].ID < group[idx[b]].ID
	})
	key := make([]byte, 0, len(group)*8)
	for _, i := range idx {
		key = fmt.Appendf(key, "%d:%d;", group[i].Type, group[i].ID)
	}
	return string(key)
}

// tidPair is a (type, id) pair during dedup-key construction.
type tidPair struct{ t, id int }

// CombinationDedupKey returns a compact canonical key for an object
// combination: two groups share it iff they share a CombinationKey. The
// bytes are binary, not printable — this variant exists because key
// construction dominates combination extraction on large diagrams (Groups,
// spill-file dedup, the mutable engine's reindex), where CombinationKey's
// formatting and sort.Slice closure are an order of magnitude slower.
func CombinationDedupKey(group []Object) string {
	var stack [8]tidPair
	g := sortedPairs(&stack, group)
	buf := make([]byte, 0, 16*len(g))
	for i := range g {
		buf = binary.BigEndian.AppendUint64(buf, uint64(g[i].t))
		buf = binary.BigEndian.AppendUint64(buf, uint64(g[i].id))
	}
	return string(buf)
}

// sortedPairs returns group's (Type, ID) pairs in ascending order — the
// canonical form both CombinationDedupKey and Groups compare — in stack when
// the group fits.
func sortedPairs(stack *[8]tidPair, group []Object) []tidPair {
	var g []tidPair
	if len(group) <= len(stack) {
		g = stack[:0]
	} else {
		g = make([]tidPair, 0, len(group))
	}
	for i := range group {
		g = append(g, tidPair{group[i].Type, group[i].ID})
	}
	// Insertion sort: groups hold one object per type, so they are tiny and
	// arrive nearly sorted.
	for i := 1; i < len(g); i++ {
		for j := i; j > 0 && (g[j].t < g[j-1].t || (g[j].t == g[j-1].t && g[j].id < g[j-1].id)); j-- {
			g[j], g[j-1] = g[j-1], g[j]
		}
	}
	return g
}

// combinationHash digests a group's canonical (Type, ID) sequence, so two
// groups with equal CombinationDedupKey hash equal.
func combinationHash(group []Object) uint64 {
	var stack [8]tidPair
	h := uint64(len(group))
	for _, p := range sortedPairs(&stack, group) {
		h = (h ^ uint64(p.t)) * 0x100000001b3
		h = (h ^ uint64(p.id)) * 0x9e3779b97f4a7c15
	}
	// splitmix64 finaliser: spread the bits over the table index.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// sameCombination reports whether two groups have the same canonical
// (Type, ID) sequence, i.e. equal CombinationDedupKey.
func sameCombination(a, b []Object) bool {
	if len(a) != len(b) {
		return false
	}
	var sa, sb [8]tidPair
	return slices.Equal(sortedPairs(&sa, a), sortedPairs(&sb, b))
}
