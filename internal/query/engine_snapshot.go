package query

import (
	"fmt"

	"molq/internal/core"
)

// NewEngineFromPrepared assembles an engine around an already-prepared MOVD,
// skipping Voronoi generation and overlapping entirely. This is the restore
// path of the binary shard snapshot (store.WriteShard/ReadShard), the one
// engine persistence format: the diagram is taken as-is and only the flat
// query state is derived from it. The per-type basic diagrams are not
// reconstructed, so the first mutation repairs by full rebuild.
func NewEngineFromPrepared(in Input, method Method, movd *core.MOVD) (*Engine, error) {
	if movd == nil {
		return nil, fmt.Errorf("query: prepared engine has no diagram")
	}
	e := &Engine{
		in:     in,
		method: method,
	}
	e.mode = core.RRB
	if method == MBRB {
		e.mode = core.MBRB
	}
	combos := movd.Groups()
	e.state.Store(&engineState{
		version:       1,
		sets:          in.Sets,
		movd:          movd,
		combos:        combos,
		flat:          in.buildFlat(in.Sets, combos),
		pointsManaged: movd.PointsManaged(),
	})
	e.dyn = make([]*typeDynamic, len(in.Sets))
	e.initReplicas()
	return e, nil
}

// Prepared returns one consistent view of the engine's current state: the
// prepared diagram, the object sets it covers and the version that
// published them. All three come from the same COW snapshot, so a
// concurrent mutation cannot tear them apart. The cluster tier uses this to
// cut version-stamped shard snapshots; callers must treat the diagram and
// sets as read-only (they are shared with in-flight queries).
func (e *Engine) Prepared() (movd *core.MOVD, sets [][]core.Object, version int64) {
	st := e.state.Load()
	return st.movd, st.sets, st.version
}
