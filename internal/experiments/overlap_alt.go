package experiments

import (
	"cmp"
	"fmt"
	"slices"

	"molq/internal/core"
	"molq/internal/polyclip"
	"molq/internal/rtree"
)

// This file holds alternative implementations of the ⊕ candidate-detection
// stage for the Ext 3 ablation. The paper's Algorithm 2 uses a plane sweep
// with balanced-tree status structures; OverlapNaive and OverlapRTree trade
// that for an O(n·m) pair scan and an R-tree probe respectively. All
// variants must produce the same OVR multiset — the ablation compares their
// costs and the tests cross-check their outputs, which also guards the
// sweep's correctness. The oracles share no code with the sweep: they
// intersect pairs with the plain polygon clip and union POIs by sorting.

// intersectPair evaluates one candidate OVR pair under the diagram mode,
// returning ok=false when the pair does not really overlap.
func intersectPair(mode core.Mode, x, y *core.OVR) (core.OVR, bool) {
	if mode == core.RRB {
		region := polyclip.ConvexIntersect(x.Region, y.Region)
		if region == nil {
			return core.OVR{}, false
		}
		return core.OVR{Region: region, MBR: region.Bounds(), POIs: unionPOIs(x.POIs, y.POIs)}, true
	}
	mbr := x.MBR.Intersect(y.MBR)
	if mbr.IsEmpty() {
		return core.OVR{}, false
	}
	return core.OVR{MBR: mbr, POIs: unionPOIs(x.POIs, y.POIs)}, true
}

// unionPOIs unions two POI lists in (Type, ID) order, keeping one copy of
// an object present in both.
func unionPOIs(a, b []core.Object) []core.Object {
	out := append(append(make([]core.Object, 0, len(a)+len(b)), a...), b...)
	slices.SortFunc(out, func(x, y core.Object) int {
		return cmp.Or(cmp.Compare(x.Type, y.Type), cmp.Compare(x.ID, y.ID))
	})
	return slices.CompactFunc(out, func(x, y core.Object) bool {
		return x.Type == y.Type && x.ID == y.ID
	})
}

// overlapPrelude checks the operands like the sweep does and returns the
// empty result diagram.
func overlapPrelude(a, b *core.MOVD) (*core.MOVD, error) {
	if a.Mode != b.Mode {
		return nil, core.ErrModeMismatch
	}
	if a.Bounds != b.Bounds {
		return nil, fmt.Errorf("experiments: operand bounds differ: %v vs %v", a.Bounds, b.Bounds)
	}
	types := append(append([]int(nil), a.Types...), b.Types...)
	slices.Sort(types)
	return &core.MOVD{
		Types:  slices.Compact(types),
		Bounds: a.Bounds,
		Mode:   a.Mode,
	}, nil
}

// OverlapNaive computes a ⊕ b by testing every OVR pair — the quadratic
// baseline the plane sweep improves on.
func OverlapNaive(a, b *core.MOVD) (*core.MOVD, core.OverlapStats, error) {
	var stats core.OverlapStats
	result, err := overlapPrelude(a, b)
	if err != nil {
		return nil, stats, err
	}
	for i := range a.OVRs {
		x := &a.OVRs[i]
		for j := range b.OVRs {
			y := &b.OVRs[j]
			stats.CandidatePairs++
			if !x.MBR.Intersects(y.MBR) {
				continue
			}
			if result.Mode == core.RRB {
				stats.RegionTests++
			}
			if out, ok := intersectPair(result.Mode, x, y); ok {
				result.OVRs = append(result.OVRs, out)
			}
		}
	}
	stats.OutputOVRs = len(result.OVRs)
	return result, stats, nil
}

// OverlapRTree computes a ⊕ b by bulk-loading an STR R-tree over b's OVR
// boxes and probing it with every OVR of a — the index-based alternative to
// the sweep's status structures (and the natural shape for the paper's
// disk-based future work, where b would be a stored diagram).
func OverlapRTree(a, b *core.MOVD) (*core.MOVD, core.OverlapStats, error) {
	var stats core.OverlapStats
	result, err := overlapPrelude(a, b)
	if err != nil {
		return nil, stats, err
	}
	entries := make([]rtree.Entry, len(b.OVRs))
	for j := range b.OVRs {
		entries[j] = rtree.Entry{Box: b.OVRs[j].MBR, ID: int32(j)}
	}
	idx := rtree.Bulk(entries, 0)
	for i := range a.OVRs {
		x := &a.OVRs[i]
		idx.Search(x.MBR, func(e rtree.Entry) bool {
			stats.CandidatePairs++
			y := &b.OVRs[e.ID]
			if result.Mode == core.RRB {
				stats.RegionTests++
			}
			if out, ok := intersectPair(result.Mode, x, y); ok {
				result.OVRs = append(result.OVRs, out)
			}
			return true
		})
	}
	stats.OutputOVRs = len(result.OVRs)
	return result, stats, nil
}
