package cluster

import (
	"fmt"

	"molq/internal/core"
	"molq/internal/geom"
	"molq/internal/query"
	"molq/internal/store"
)

// Sharding follows the strip decomposition the parallel sweep already uses:
// vertical strips of equal width tile the engine bounds, and a shard owns
// every OVR whose MBR intersects its strip. OVRs are NOT clipped — a
// combination straddling a boundary is duplicated into both shards, which
// is harmless under min-reduce (both copies solve to identical bits) and
// keeps the shard MOVDs valid sub-diagrams of the full one.

// Strips cuts bounds into n equal-width vertical strips. Every strip spans
// the full Y range; the last strip absorbs rounding so the union is exactly
// bounds.
func Strips(bounds geom.Rect, n int) []geom.Rect {
	if n < 1 {
		n = 1
	}
	out := make([]geom.Rect, n)
	w := bounds.Width() / float64(n)
	for i := range out {
		minX := bounds.Min.X + float64(i)*w
		maxX := bounds.Min.X + float64(i+1)*w
		if i == n-1 {
			maxX = bounds.Max.X
		}
		out[i] = geom.Rect{
			Min: geom.Pt(minX, bounds.Min.Y),
			Max: geom.Pt(maxX, bounds.Max.Y),
		}
	}
	return out
}

// SplitMOVD cuts a prepared MOVD into one sub-diagram per strip by MBR
// intersection, in one pass over the OVRs. Every OVR lands in at least one
// shard (the strips tile the diagram bounds and OVR MBRs intersect them);
// boundary OVRs land in several.
func SplitMOVD(m *core.MOVD, strips []geom.Rect) []*core.MOVD {
	out := make([]*core.MOVD, len(strips))
	for i := range out {
		out[i] = &core.MOVD{
			Types:  m.Types,
			Bounds: m.Bounds,
			Mode:   m.Mode,
		}
	}
	for j := range m.OVRs {
		for i, strip := range strips {
			if m.OVRs[j].MBR.Intersects(strip) {
				out[i].OVRs = append(out[i].OVRs, m.OVRs[j])
			}
		}
	}
	return out
}

// ShardMetaFor assembles the store.ShardMeta for one strip of a prepared
// engine. Method and weight kinds are stored as their numeric codes (store
// does not import query).
func ShardMetaFor(name string, in query.Input, method query.Method,
	shard, nShards int, strip geom.Rect, version int64,
	typeNames []string, sets [][]core.Object) store.ShardMeta {
	kinds := make([]uint8, len(sets))
	for ti := range kinds {
		if ti < len(in.ObjKinds) {
			kinds[ti] = uint8(in.ObjKinds[ti])
		}
	}
	names := typeNames
	if len(names) != len(sets) {
		names = make([]string, len(sets))
	}
	return store.ShardMeta{
		Engine:          name,
		Shard:           shard,
		NShards:         nShards,
		Version:         version,
		Method:          uint8(method),
		Epsilon:         in.Epsilon,
		WeightedEpsilon: in.WeightedEpsilon,
		Strip:           strip,
		Bounds:          in.Bounds,
		TypeNames:       names,
		Kinds:           kinds,
		Sets:            sets,
		Replicas:        in.Replicas,
	}
}

// EngineFromShard reconstructs a queryable engine from a shipped shard
// snapshot: the full object sets with the strip as the rebuild bounds, so a
// post-mutation rebuild stays strip-local while still seeing every site
// (a new site's Voronoi influence can cross the strip boundary).
func EngineFromShard(meta store.ShardMeta, movd *core.MOVD) (*query.Engine, error) {
	method := query.Method(meta.Method)
	switch method {
	case query.RRB, query.MBRB:
	default:
		return nil, fmt.Errorf("cluster: shard %s/%d: method code %d not servable",
			meta.Engine, meta.Shard, meta.Method)
	}
	kinds := make([]query.WeightKind, len(meta.Kinds))
	for i, k := range meta.Kinds {
		kinds[i] = query.WeightKind(k)
	}
	in := query.Input{
		Sets:            meta.Sets,
		Bounds:          meta.Strip,
		Epsilon:         meta.Epsilon,
		WeightedEpsilon: meta.WeightedEpsilon,
		ObjKinds:        kinds,
		Replicas:        meta.Replicas,
	}
	return query.NewEngineFromPrepared(in, method, movd)
}
