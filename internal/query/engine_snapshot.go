package query

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"molq/internal/core"
)

// engineSnapshot is the serialised form of a prepared engine: the input it
// was built from plus the prepared MOVD, so loading skips both Voronoi
// generation and overlapping. Snapshots are same-library artifacts (gob
// encoded); the portable interchange format for diagrams alone is
// internal/store.
type engineSnapshot struct {
	Input  Input
	Method Method
	MOVD   *core.MOVD
}

// Save serialises the prepared engine's current version. The diagram cache
// is process wiring, not engine state: it is stripped from the snapshot, and
// a loaded engine joins whatever cache its new process configures. Only the
// current sets and the overlapped diagram are persisted — not the per-type
// basic diagrams — so the first mutation of a loaded engine repairs by full
// rebuild and re-derives them.
func (e *Engine) Save(w io.Writer) error {
	st := e.state.Load()
	in := e.in
	in.Cache = nil
	in.Sets = st.sets
	return gob.NewEncoder(w).Encode(engineSnapshot{
		Input:  in,
		Method: e.method,
		MOVD:   st.movd,
	})
}

// SaveFile writes the prepared engine to path.
func (e *Engine) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadEngine restores an engine saved with Save. The prepared diagram is
// validated before use so a corrupted snapshot fails loudly instead of
// producing wrong answers.
func LoadEngine(r io.Reader) (*Engine, error) {
	var snap engineSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("query: engine snapshot: %w", err)
	}
	if snap.MOVD == nil {
		return nil, fmt.Errorf("query: engine snapshot has no diagram")
	}
	if err := snap.MOVD.Validate(); err != nil {
		return nil, fmt.Errorf("query: engine snapshot invalid: %w", err)
	}
	if err := snap.Input.validate(); err != nil {
		return nil, fmt.Errorf("query: engine snapshot invalid: %w", err)
	}
	return NewEngineFromPrepared(snap.Input, snap.Method, snap.MOVD)
}

// NewEngineFromPrepared assembles an engine around an already-prepared MOVD,
// skipping Voronoi generation and overlapping entirely. This is the
// restore path shared by gob snapshots (LoadEngine) and the cluster's
// binary shard snapshots: the diagram is taken as-is and only the flat query
// state is derived from it. Like LoadEngine, the per-type basic diagrams are
// not reconstructed, so the first mutation repairs by full rebuild.
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

// LoadEngineFile restores an engine from path.
func LoadEngineFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadEngine(f)
}
