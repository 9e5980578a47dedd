package query

import (
	"errors"
	"fmt"
	"time"

	"molq/internal/core"
	"molq/internal/geom"
	"molq/internal/obs"
	"molq/internal/voronoi"
)

// This file implements incremental MOVD maintenance: InsertObject and
// DeleteObject mutate a prepared engine without re-running the full Fig-3
// pipeline. A mutation of one object of type t only moves Voronoi boundaries
// inside the Delaunay link of the mutated site; everything outside that
// region — in the basic diagram AND in the overlapped MOVD — is provably
// unchanged (cavity retriangulation touches only link triangles, and an OVR
// whose type-t cell did not change cannot change either, since the other
// operands of the ⊕ chain are untouched). The repair is therefore:
//
//  1. apply the site insert/delete to the maintained Delaunay triangulation
//     (voronoi.Dynamic: jump-and-walk locate + local retriangulation, or
//     dirty-region hole retriangulation for deletes);
//  2. extract the post-mutation cells of the link — the "patch", a partial
//     basic MOVD of type t — and the IDs whose old cells are now stale;
//  3. splice the patch into the prepared MOVD (core.SpliceOverlap): keep
//     every OVR whose type-t POI is clean, re-sweep only the patch against
//     the other types' basic diagrams restricted to the dirty rectangle.
//
// The result is exact — bit-for-bit the diagram a full rebuild would produce
// up to OVR ordering — at a cost proportional to the dirty region, not the
// dataset. Any condition the incremental path cannot handle (weighted
// diagrams, sites outside the dynamic frame, degenerate hole geometry,
// snapshot-loaded engines with no retained basics) falls back to a full
// rebuild of the new object sets; the engine's answers are identical either
// way, only the repair cost differs.
//
// Concurrency: mutations are serialised by Engine.updMu and publish a fresh
// immutable engineState with a single atomic store. In-flight queries keep
// the snapshot they loaded; they are never blocked and never observe a
// half-applied update.

// Mutation errors. Validation failures leave the engine completely
// untouched; a failed rebuild (reported as any other error) also leaves the
// published state untouched but discards the incremental substrate, so the
// next mutation starts from the published sets.
var (
	// ErrBadType reports a type index outside [0, number of sets).
	ErrBadType = errors.New("query: type index out of range")
	// ErrUnknownObject reports a delete of an ID not present in the type.
	ErrUnknownObject = errors.New("query: no object with this id in the type")
	// ErrDuplicateID reports an insert reusing an ID already live in the type.
	ErrDuplicateID = errors.New("query: object id already present in the type")
	// ErrDuplicateLocation reports an insert at a location already occupied by
	// another object of the same type (its Voronoi cell would be empty and
	// the object invisible to every query).
	ErrDuplicateLocation = errors.New("query: location already occupied by an object of this type")
	// ErrLastObject reports a delete that would empty a type; every type must
	// keep at least one object (Eq 4 sums a nearest neighbour per type).
	ErrLastObject = errors.New("query: cannot delete the last object of a type")
)

var (
	engineUpdatesMetric = obs.Default.CounterVec("molq_engine_updates_total",
		"Successful engine mutations by kind.", "kind")
	engineRepairMetric = obs.Default.CounterVec("molq_engine_update_repairs_total",
		"Repair strategy of successful engine mutations.", "path")
	engineUpdateFailuresMetric = obs.Default.Counter("molq_engine_update_failures_total",
		"Engine mutations rejected by validation or failed during repair.")
)

// UpdateStats reports what one mutation did and what it cost.
type UpdateStats struct {
	// Version is the engine version the mutation published.
	Version int64
	// Rebuilt is true when the mutation repaired by full pipeline rebuild
	// instead of the incremental splice.
	Rebuilt bool

	// DirtyCells is the number of existing cells invalidated by the mutation
	// (the Delaunay link of the mutated site); 0 when Rebuilt.
	DirtyCells int
	// KeptOVRs is the number of OVRs of the previous MOVD carried into the
	// new version unchanged; 0 when Rebuilt.
	KeptOVRs int
	// NewOVRs is the size of the published MOVD.
	NewOVRs int

	VDTime      time.Duration // triangulation repair + patch extraction (or full VD build)
	SpliceTime  time.Duration // dirty-region re-sweep + splice (or full overlap)
	ReindexTime time.Duration // combination re-extraction, flattening, cache maintenance
	TotalTime   time.Duration

	// Overlap counts the sweep work of the repair (restricted to the dirty
	// rectangle on the incremental path).
	Overlap core.OverlapStats

	// Trace is the mutation's span tree when Input.Trace was set.
	Trace *obs.Span `json:"-"`
}

// InsertObject adds one object to the engine's object sets and repairs the
// prepared MOVD, publishing a new engine version. obj.Type selects the set;
// obj.ID must be unused within it and obj.Loc unoccupied. obj.TypeWeight is
// a placeholder (every Query overrides type weights) and defaults to 1 when
// unset. Safe for concurrent use with queries; concurrent mutations are
// serialised.
func (e *Engine) InsertObject(obj core.Object) (UpdateStats, error) {
	ti := obj.Type
	if ti < 0 || ti >= len(e.in.Sets) {
		engineUpdateFailuresMetric.Inc()
		return UpdateStats{}, fmt.Errorf("%w: %d", ErrBadType, ti)
	}
	if obj.ObjWeight <= 0 {
		engineUpdateFailuresMetric.Inc()
		return UpdateStats{}, fmt.Errorf("%w (type %d object %d)", ErrBadWeight, ti, obj.ID)
	}
	if obj.TypeWeight <= 0 {
		obj.TypeWeight = 1
	}

	e.updMu.Lock()
	defer e.updMu.Unlock()
	st := e.state.Load()
	set := st.sets[ti]
	for i := range set {
		if set[i].ID == obj.ID {
			engineUpdateFailuresMetric.Inc()
			return UpdateStats{}, fmt.Errorf("%w: type %d id %d", ErrDuplicateID, ti, obj.ID)
		}
		if set[i].Loc == obj.Loc {
			engineUpdateFailuresMetric.Inc()
			return UpdateStats{}, fmt.Errorf("%w: type %d at %v", ErrDuplicateLocation, ti, obj.Loc)
		}
	}
	uniformAfter := uniformWeights(set) && obj.ObjWeight == set[0].ObjWeight
	if !uniformAfter && e.method == RRB && e.in.WeightedEpsilon < 0 {
		// Exact construction forced: weighted RRB has no realization. With
		// WeightedEpsilon ≥ 0 the non-uniform insert simply falls through to
		// a rebuild on the approximate weighted cell path.
		engineUpdateFailuresMetric.Inc()
		return UpdateStats{}, ErrWeightedRRB
	}

	newSet := make([]core.Object, len(set)+1)
	copy(newSet, set)
	newSet[len(set)] = obj
	newSets := replaceSet(st.sets, ti, newSet)

	var us UpdateStats
	var root *obs.Span
	if e.in.Trace {
		root = obs.StartSpan("engine-update/insert")
		us.Trace = root
	}
	start := time.Now()

	incremental := st.basics != nil && uniformAfter
	if incremental {
		if td := e.ensureDyn(ti, st); td != nil {
			vdStart := time.Now()
			vdSpan := root.Child("locate/retriangulate")
			slot, dirtySlots, err := td.vd.Insert(obj.Loc)
			if err == nil {
				td.setObj(slot, obj)
				dirtyIDs := td.idsOf(dirtySlots, nil)
				patch, perr := td.patch(e.mode, ti, append(dirtySlots, slot))
				us.VDTime = time.Since(vdStart)
				vdSpan.SetAttr("dirty_cells", len(dirtySlots))
				vdSpan.EndWith(us.VDTime)
				if perr == nil {
					if err := e.spliceLocked(st, ti, dirtyIDs, patch, newSets, &us, root); err == nil {
						e.finishUpdate("insert", &us, start, root)
						return us, nil
					}
				}
			} else {
				us.VDTime = time.Since(vdStart)
				vdSpan.SetAttr("error", err.Error())
				vdSpan.EndWith(us.VDTime)
			}
			// The substrate may have diverged from the published state (the
			// site went in but the splice failed, or the triangulation
			// reported corruption); discard it and repair by rebuild.
			e.dyn[ti] = nil
		}
	}

	if err := e.rebuildLocked(ti, newSets, &us, root); err != nil {
		engineUpdateFailuresMetric.Inc()
		root.End()
		return us, err
	}
	e.finishUpdate("insert", &us, start, root)
	return us, nil
}

// DeleteObject removes the object with the given ID from type typeIdx and
// repairs the prepared MOVD, publishing a new engine version. Safe for
// concurrent use with queries; concurrent mutations are serialised.
func (e *Engine) DeleteObject(typeIdx, id int) (UpdateStats, error) {
	if typeIdx < 0 || typeIdx >= len(e.in.Sets) {
		engineUpdateFailuresMetric.Inc()
		return UpdateStats{}, fmt.Errorf("%w: %d", ErrBadType, typeIdx)
	}

	e.updMu.Lock()
	defer e.updMu.Unlock()
	st := e.state.Load()
	set := st.sets[typeIdx]
	at := -1
	for i := range set {
		if set[i].ID == id {
			at = i
			break
		}
	}
	if at < 0 {
		engineUpdateFailuresMetric.Inc()
		return UpdateStats{}, fmt.Errorf("%w: type %d id %d", ErrUnknownObject, typeIdx, id)
	}
	if len(set) == 1 {
		engineUpdateFailuresMetric.Inc()
		return UpdateStats{}, fmt.Errorf("%w: type %d", ErrLastObject, typeIdx)
	}

	newSet := make([]core.Object, 0, len(set)-1)
	newSet = append(newSet, set[:at]...)
	newSet = append(newSet, set[at+1:]...)
	newSets := replaceSet(st.sets, typeIdx, newSet)

	var us UpdateStats
	var root *obs.Span
	if e.in.Trace {
		root = obs.StartSpan("engine-update/delete")
		us.Trace = root
	}
	start := time.Now()

	incremental := st.basics != nil && uniformWeights(set)
	if incremental {
		if td := e.ensureDyn(typeIdx, st); td != nil {
			if slot, ok := td.slotOf[id]; ok {
				vdStart := time.Now()
				vdSpan := root.Child("locate/retriangulate")
				dirtySlots, err := td.vd.Delete(slot)
				if err == nil {
					delete(td.slotOf, id)
					dirtyIDs := td.idsOf(dirtySlots, map[int]bool{id: true})
					patch, perr := td.patch(e.mode, typeIdx, dirtySlots)
					us.VDTime = time.Since(vdStart)
					vdSpan.SetAttr("dirty_cells", len(dirtySlots))
					vdSpan.EndWith(us.VDTime)
					if perr == nil {
						if serr := e.spliceLocked(st, typeIdx, dirtyIDs, patch, newSets, &us, root); serr == nil {
							e.finishUpdate("delete", &us, start, root)
							return us, nil
						}
					}
				} else {
					us.VDTime = time.Since(vdStart)
					vdSpan.SetAttr("error", err.Error())
					vdSpan.EndWith(us.VDTime)
				}
				e.dyn[typeIdx] = nil
			}
		}
	}

	if err := e.rebuildLocked(typeIdx, newSets, &us, root); err != nil {
		engineUpdateFailuresMetric.Inc()
		root.End()
		return us, err
	}
	e.finishUpdate("delete", &us, start, root)
	return us, nil
}

// replaceSet returns a copy of sets with index ti swapped for newSet; every
// other set is shared (immutable by convention).
func replaceSet(sets [][]core.Object, ti int, newSet []core.Object) [][]core.Object {
	out := make([][]core.Object, len(sets))
	copy(out, sets)
	out[ti] = newSet
	return out
}

// ensureDyn returns the maintained Voronoi substrate of type ti, building it
// from the current state on first use. nil means the type cannot be
// maintained incrementally (construction failed — e.g. duplicate locations
// in a snapshot-loaded set) and the caller repairs by rebuild.
func (e *Engine) ensureDyn(ti int, st *engineState) *typeDynamic {
	if e.dyn[ti] != nil {
		return e.dyn[ti]
	}
	set := st.sets[ti]
	sites := make([]geom.Point, len(set))
	for i := range set {
		sites[i] = set[i].Loc
	}
	vd, err := voronoi.NewDynamic(sites, e.in.Bounds)
	if err != nil {
		return nil
	}
	td := &typeDynamic{
		vd:     vd,
		slotOf: make(map[int]int, len(set)),
		objAt:  append([]core.Object(nil), set...),
	}
	// NewDynamic assigns slot i to sites[i], so slots align with set order.
	for i := range set {
		td.slotOf[set[i].ID] = i
	}
	e.dyn[ti] = td
	return td
}

// setObj records the object stored at a (possibly fresh) slot.
func (td *typeDynamic) setObj(slot int, obj core.Object) {
	for len(td.objAt) <= slot {
		td.objAt = append(td.objAt, core.Object{})
	}
	td.objAt[slot] = obj
	td.slotOf[obj.ID] = slot
}

// idsOf maps dirty slots to their object IDs, merging into extra (which may
// be nil).
func (td *typeDynamic) idsOf(slots []int, extra map[int]bool) map[int]bool {
	if extra == nil {
		extra = make(map[int]bool, len(slots))
	}
	for _, s := range slots {
		extra[td.objAt[s].ID] = true
	}
	return extra
}

// patch extracts the post-mutation cells of the given slots as a partial
// basic MOVD of type ti — the splice operand. Dead slots and cells clipped
// empty contribute nothing (matching core.FromVoronoi).
func (td *typeDynamic) patch(mode core.Mode, ti int, slots []int) (*core.MOVD, error) {
	m := &core.MOVD{Types: []int{ti}, Bounds: td.vd.Bounds(), Mode: mode}
	for _, slot := range slots {
		if !td.vd.Alive(slot) {
			continue
		}
		cell, err := td.vd.Cell(slot)
		if err != nil {
			return nil, err
		}
		if cell.IsEmpty() {
			continue
		}
		ovr := core.OVR{MBR: cell.Bounds(), POIs: []core.Object{td.objAt[slot]}}
		if mode == core.RRB {
			ovr.Region = cell
		}
		m.OVRs = append(m.OVRs, ovr)
	}
	return m, nil
}

// spliceLocked performs steps 2–3 of the incremental repair and publishes
// the new version: rebuild the type's basic diagram by patching (shared kept
// OVRs + fresh patch OVRs), splice the overlapped MOVD, re-extract
// combinations, advance cache fingerprints. Called with updMu held.
func (e *Engine) spliceLocked(st *engineState, ti int, dirtyIDs map[int]bool, patch *core.MOVD, newSets [][]core.Object, us *UpdateStats, root *obs.Span) error {
	spliceStart := time.Now()
	spliceSpan := root.Child("resweep/splice")
	others := make([]*core.MOVD, 0, len(st.basics)-1)
	for i, b := range st.basics {
		if i != ti {
			others = append(others, b)
		}
	}
	newMovd, ostats, err := core.SpliceOverlap(st.movd, ti, dirtyIDs, patch, others, nil)
	if err != nil {
		spliceSpan.SetAttr("error", err.Error())
		spliceSpan.End()
		return err
	}
	us.Overlap = ostats
	us.DirtyCells = len(dirtyIDs)
	us.NewOVRs = newMovd.Len()

	// One scan of the previous MOVD counts the survivors and retires each
	// dropped OVR's combination from the maintained multiset; the fresh OVRs
	// (appended after the kept ones by SpliceOverlap) then register theirs.
	// This keeps the combos list correct in O(dirty) map work instead of
	// re-extracting it from every OVR, which would dominate the update.
	e.ensureComboIdx(st)
	combos := append(make([][]core.Object, 0, len(st.combos)+4), st.combos...)
	kept := 0
	for i := range st.movd.OVRs {
		o := &st.movd.OVRs[i]
		clean := true
		for _, p := range o.POIs {
			if p.Type == ti && dirtyIDs[p.ID] {
				clean = false
				break
			}
		}
		if clean {
			kept++
			continue
		}
		k := o.DedupKey()
		if e.comboRef[k]--; e.comboRef[k] <= 0 {
			delete(e.comboRef, k)
			pos := e.comboPos[k]
			delete(e.comboPos, k)
			last := len(combos) - 1
			if pos != last {
				combos[pos] = combos[last]
				e.comboPos[core.CombinationDedupKey(combos[pos])] = pos
			}
			combos = combos[:last]
		}
	}
	for i := kept; i < len(newMovd.OVRs); i++ {
		k := newMovd.OVRs[i].DedupKey()
		if e.comboRef[k]++; e.comboRef[k] == 1 {
			e.comboPos[k] = len(combos)
			combos = append(combos, newMovd.OVRs[i].POIs)
		}
	}
	us.KeptOVRs = kept
	us.SpliceTime = time.Since(spliceStart)
	spliceSpan.SetAttr("kept_ovrs", kept)
	spliceSpan.SetAttr("new_ovrs", us.NewOVRs)
	spliceSpan.EndWith(us.SpliceTime)

	// The type's basic diagram is patched the same way the MOVD was: OVRs of
	// clean cells are shared with the previous version, dirty ones replaced
	// by the patch.
	reindexStart := time.Now()
	reindexSpan := root.Child("reindex")
	oldBasic := st.basics[ti]
	newBasic := &core.MOVD{Types: oldBasic.Types, Bounds: oldBasic.Bounds, Mode: oldBasic.Mode}
	newBasic.OVRs = make([]core.OVR, 0, len(oldBasic.OVRs)+1)
	for i := range oldBasic.OVRs {
		if !dirtyIDs[oldBasic.OVRs[i].POIs[0].ID] {
			newBasic.OVRs = append(newBasic.OVRs, oldBasic.OVRs[i])
		}
	}
	newBasic.OVRs = append(newBasic.OVRs, patch.OVRs...)
	newBasics := make([]*core.MOVD, len(st.basics))
	copy(newBasics, st.basics)
	newBasics[ti] = newBasic

	newFps := e.advanceCache(st, ti, newSets, newBasic, newMovd)
	e.state.Store(&engineState{
		version:       st.version + 1,
		sets:          newSets,
		basics:        newBasics,
		fps:           newFps,
		movd:          newMovd,
		combos:        combos,
		flat:          e.in.buildFlat(newSets, combos),
		pointsManaged: newMovd.PointsManaged(),
	})
	us.Version = st.version + 1
	us.ReindexTime = time.Since(reindexStart)
	reindexSpan.SetAttr("combinations", len(combos))
	reindexSpan.EndWith(us.ReindexTime)
	return nil
}

// ensureComboIdx builds the combination multiset of the current snapshot on
// the first incremental mutation after preparation or a rebuild. Called with
// updMu held.
func (e *Engine) ensureComboIdx(st *engineState) {
	if e.comboRef != nil {
		return
	}
	e.comboRef = make(map[string]int, len(st.movd.OVRs))
	for i := range st.movd.OVRs {
		e.comboRef[st.movd.OVRs[i].DedupKey()]++
	}
	e.comboPos = make(map[string]int, len(st.combos))
	for i, c := range st.combos {
		e.comboPos[core.CombinationDedupKey(c)] = i
	}
}

// advanceCache retires the cache entries of the superseded version and seeds
// the repaired diagrams under the new fingerprints, so a later cold solve or
// engine preparation over the mutated sets hits instead of rebuilding.
// Returns the new per-type fingerprints (nil when no cache is configured).
func (e *Engine) advanceCache(st *engineState, ti int, newSets [][]core.Object, newBasic, newMovd *core.MOVD) []fingerprint {
	cache := e.in.diagramCache()
	if cache == nil || st.fps == nil {
		return nil
	}
	newFps := make([]fingerprint, len(st.fps))
	copy(newFps, st.fps)
	newFps[ti] = fingerprintSet(newSets[ti], ti, e.in.Bounds, e.mode, e.in.kind(ti), e.in.Epsilon, e.in.WeightedEpsilon)
	cache.invalidate(st.fps[ti])
	cache.put(newFps[ti], newBasic)
	if len(newSets) >= 2 {
		cache.invalidate(fingerprintOverlap(st.fps, false))
		cache.put(fingerprintOverlap(newFps, false), newMovd)
	}
	return newFps
}

// rebuildLocked repairs by running the full Fig-3 preparation (Modules 1–2)
// over the new sets and publishing the result. Called with updMu held. On
// failure the published state is untouched. The type's incremental substrate
// is discarded either way: a successful rebuild supersedes it and a failed
// one may have diverged from it.
func (e *Engine) rebuildLocked(ti int, newSets [][]core.Object, us *UpdateStats, root *obs.Span) error {
	e.dyn[ti] = nil
	// The rebuilt MOVD shares nothing with the maintained multiset; the next
	// incremental mutation re-derives it from the published snapshot.
	e.comboRef, e.comboPos = nil, nil
	st := e.state.Load()
	in2 := e.in
	in2.Sets = newSets

	vdStart := time.Now()
	vdSpan := root.Child("rebuild/vd-build")
	basics, fps, _, err := in2.buildBasics(e.method, e.mode, vdSpan)
	us.VDTime = time.Since(vdStart)
	vdSpan.EndWith(us.VDTime)
	if err != nil {
		return err
	}

	ovStart := time.Now()
	ovSpan := root.Child("rebuild/overlap")
	var cs CacheStats
	acc, err := in2.cachedOverlapChain(nil, basics, fps, &us.Overlap, &cs, ovSpan)
	us.SpliceTime = time.Since(ovStart)
	ovSpan.EndWith(us.SpliceTime)
	if err != nil {
		return err
	}

	reindexStart := time.Now()
	combos := acc.Groups()
	e.state.Store(&engineState{
		version:       st.version + 1,
		sets:          newSets,
		basics:        basics,
		fps:           fps,
		movd:          acc,
		combos:        combos,
		flat:          e.in.buildFlat(newSets, combos),
		pointsManaged: acc.PointsManaged(),
	})
	us.Version = st.version + 1
	us.Rebuilt = true
	us.NewOVRs = acc.Len()
	us.ReindexTime = time.Since(reindexStart)
	return nil
}

// finishUpdate stamps the total duration, closes the trace and bumps the
// update metrics.
func (e *Engine) finishUpdate(kind string, us *UpdateStats, start time.Time, root *obs.Span) {
	us.TotalTime = time.Since(start)
	root.SetAttr("version", us.Version)
	root.SetAttr("rebuilt", us.Rebuilt)
	root.EndWith(us.TotalTime)
	engineUpdatesMetric.With(kind).Inc()
	if us.Rebuilt {
		engineRepairMetric.With("rebuild").Inc()
	} else {
		engineRepairMetric.With("incremental").Inc()
	}
}
