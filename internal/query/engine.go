package query

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"molq/internal/core"
	"molq/internal/fermat"
	"molq/internal/geom"
	"molq/internal/obs"
	"molq/internal/voronoi"
)

// Engine answers repeated MOLQs over a mutable set of POI data. The key
// observation (from the model itself) is that the MOVD depends only on
// object locations, object weights and the ς^o family — never on the type
// weights w^t, which enter the objective only through the optimizer's
// Fermat-Weber folding. Preparing an Engine therefore runs the VD Generator
// and MOVD Overlapper once; each Query call re-runs just the optimizer with
// fresh type weights, typically orders of magnitude cheaper.
//
// Prepared state lives in immutable versioned snapshots (engineState) behind
// an atomic pointer: queries load one snapshot and never observe a mutation
// mid-flight, while InsertObject/DeleteObject (mutate.go) build the next
// version copy-on-write and publish it with a single store. Mutations are
// serialised by updMu; queries are lock-free.
type Engine struct {
	in     Input // base configuration; the CURRENT object sets live in the state snapshot
	mode   core.Mode
	method Method
	state  atomic.Pointer[engineState]

	// replicas are the per-core read replicas of the flat query state (nil
	// when Input.Replicas ≤ 0). Slots are claimed with TryLock and refreshed
	// lazily against the current snapshot version.
	replicas []*engReplica

	// updMu serialises mutations. The incremental substrate below it (one
	// maintained Delaunay triangulation per type, plus the object↔slot maps)
	// is only touched under updMu; nil entries mean the type repairs by full
	// rebuild (weighted diagrams, snapshot-loaded engines, degenerate
	// geometry).
	updMu sync.Mutex
	dyn   []*typeDynamic

	// comboRef/comboPos maintain the combination multiset of the CURRENT
	// snapshot's MOVD so the incremental repair can update the combos list in
	// O(dirty) instead of re-extracting it from every OVR: comboRef counts
	// OVRs per combination dedup key, comboPos locates each combination in
	// state.combos. Guarded by updMu, built lazily on the first incremental
	// mutation, and discarded (nil) by rebuilds, which re-extract from
	// scratch.
	comboRef map[string]int
	comboPos map[string]int

	// prep captures how long Prepare took, for reporting.
	prepTime time.Duration
	// cacheStats records the diagram-cache lookups of the preparation.
	cacheStats CacheStats
}

// engineState is one immutable prepared snapshot: everything a query reads.
// A snapshot is never modified after publication; mutations assemble a fresh
// one sharing every unchanged OVR, basic diagram and combo slice with its
// predecessor (copy-on-write).
type engineState struct {
	version int64
	sets    [][]core.Object
	// basics holds the per-type basic MOVDs the overlapped diagram was built
	// from — the operands incremental splicing re-sweeps. nil for engines
	// restored from snapshots (their first mutation falls back to a full
	// rebuild, which repopulates it).
	basics []*core.MOVD
	// fps are the per-type basic fingerprints when a diagram cache is
	// configured; mutations advance them and retire the stale entries.
	fps    []fingerprint
	movd   *core.MOVD
	combos [][]core.Object
	flat   engineFlat
	// pointsManaged is movd.PointsManaged(), counted once per snapshot so
	// queries need not walk every OVR to report it.
	pointsManaged int
}

// typeDynamic is the mutable Voronoi substrate of one type: the maintained
// triangulation plus the slot bookkeeping tying diagram sites to object IDs.
type typeDynamic struct {
	vd     *voronoi.Dynamic
	slotOf map[int]int   // object ID → slot
	objAt  []core.Object // slot → object (stale entries for dead slots)
}

// engineFlat is the combo-major flattening of combos, precomputed once per
// version so every Query/QueryBatch call reads its Fermat-Weber problems
// from contiguous arrays instead of walking the nested combo slices. groups
// is the fermat-facing structure-of-arrays geometry (coordinates, group
// boundaries, cached pair distances for the prefilter, the bound-ordered
// scan order) together with each point's type and weight-independent
// factors, so a query's weight vector is its problem's Scale and every
// weight is folded when the scan reads it. minBase[t] bounds from below
// every factor type t's weight is multiplied by in the fold — the smallest
// object weight in its set, which every combination draws from, or 1 for
// an additive type — so a lower bound on a vector's folded weights costs
// O(types).
type engineFlat struct {
	groups  fermat.FlatGroups
	minBase []float64
}

// flatGroups packs the combinations' points into the fermat
// structure-of-arrays layout shared by one-shot solves and engine snapshots,
// leaving PairDist nil: a one-shot scan reads each pair distance once, so
// computing it on demand costs the same. Each point's weight factors come
// from fold in the same pass, in one of two forms. perType (an engine
// snapshot) records the point's type and folds it under a unit type
// weight, leaving w^t to the query's Scale; otherwise (a one-shot solve,
// whose objects carry their own TypeWeight) the point is folded whole and
// every Typ is 0, for Scale = {1}. OffBase is nil when no type is
// additive.
func (in *Input) flatGroups(combos [][]core.Object, perType bool) fermat.FlatGroups {
	n := 0
	for _, c := range combos {
		n += len(c)
	}
	g := fermat.FlatGroups{
		X:      make([]float64, n),
		Y:      make([]float64, n),
		Starts: make([]int32, len(combos)+1),
		Typ:    make([]int32, n),
		Base:   make([]float64, n),
	}
	for ti := range in.Sets {
		if in.kind(ti) == AdditiveObjWeights {
			g.OffBase = make([]float64, n)
			break
		}
	}
	k := 0
	for i, c := range combos {
		g.Starts[i] = int32(k)
		for _, o := range c {
			g.X[k], g.Y[k] = o.Loc.X, o.Loc.Y
			if perType {
				g.Typ[k] = int32(o.Type)
				o.TypeWeight = 1
			}
			var off float64
			g.Base[k], off = in.fold(o)
			if g.OffBase != nil {
				g.OffBase[k] = off
			}
			k++
		}
	}
	g.Starts[len(combos)] = int32(k)
	return g
}

// buildFlat derives the flat combo representation for one state snapshot,
// including the bound-ordered scan order every engine query walks. PairDist
// caches d(p_0, p_1) of every combination (0 for shorter ones): the
// prefilter's geometry is weight-independent, so it costs one sqrt per
// combination per snapshot instead of one per combination per weight
// vector. sets are the snapshot's object sets, which minBase is taken
// over.
func (in *Input) buildFlat(sets, combos [][]core.Object) engineFlat {
	f := engineFlat{
		groups:  in.flatGroups(combos, true),
		minBase: make([]float64, len(in.Sets)),
	}
	f.groups.PairDist = make([]float64, len(combos))
	for i, c := range combos {
		if len(c) >= 2 {
			f.groups.PairDist[i] = c[0].Loc.Dist(c[1].Loc)
		}
	}
	f.groups.Order = f.groups.BoundOrder()
	for ti, set := range sets {
		if in.kind(ti) == AdditiveObjWeights {
			f.minBase[ti] = 1
			continue
		}
		m := math.Inf(1)
		for _, o := range set {
			if o.ObjWeight < m {
				m = o.ObjWeight
			}
		}
		f.minBase[ti] = m
	}
	return f
}

// copyFrom deep-copies src into f, reusing capacity — the replica refresh
// path. After it returns, f shares no backing array with src. OffBase is
// nil in both or in neither: an engine's weight kinds never change.
func (f *engineFlat) copyFrom(src *engineFlat) {
	f.groups.X = append(f.groups.X[:0], src.groups.X...)
	f.groups.Y = append(f.groups.Y[:0], src.groups.Y...)
	f.groups.Starts = append(f.groups.Starts[:0], src.groups.Starts...)
	f.groups.PairDist = append(f.groups.PairDist[:0], src.groups.PairDist...)
	f.groups.Order = append(f.groups.Order[:0], src.groups.Order...)
	f.groups.Typ = append(f.groups.Typ[:0], src.groups.Typ...)
	f.groups.Base = append(f.groups.Base[:0], src.groups.Base...)
	f.groups.OffBase = append(f.groups.OffBase[:0], src.groups.OffBase...)
	f.minBase = append(f.minBase[:0], src.minBase...)
}

// problemFor is one weight vector's Fermat-Weber problem over the shared
// geometry, in O(types): the vector is the problem's Scale, which the scan
// folds into each point's factors as it reads them. MinW, the bound-ordered
// scan's lower bound on every folded weight, is the smallest product of a
// type weight and its minBase, which no folded weight of that type
// undercuts (rounding is monotone). The problem aliases typeWeights, which
// must stay unchanged until the solve returns.
func (f *engineFlat) problemFor(typeWeights []float64) fermat.FlatProblem {
	p := fermat.FlatProblem{Geom: &f.groups, Scale: typeWeights, MinW: math.Inf(1)}
	for ti, b := range f.minBase {
		p.MinW = min(p.MinW, typeWeights[ti]*b)
	}
	return p
}

// engReplica is one per-core read replica of the engine's hot query state: a
// private deep copy of the flat combo arrays. Concurrent QueryBatch readers
// each claim one slot, so two cores never stream the same cache-hot arrays
// (no shared-line traffic on the hottest read path). A replica refreshes
// lazily: claiming it under a newer engine version re-copies the flat
// arrays before use.
type engReplica struct {
	mu      sync.Mutex // claimed with TryLock; never contended-on
	version int64
	flat    engineFlat
}

// initReplicas sizes the replica set from Input.Replicas (0 disables).
func (e *Engine) initReplicas() {
	if e.in.Replicas <= 0 {
		return
	}
	e.replicas = make([]*engReplica, e.in.Replicas)
	for i := range e.replicas {
		e.replicas[i] = &engReplica{}
	}
}

// acquireReplica claims a free replica slot and brings it up to date with the
// given snapshot. nil means no slot was free (or replicas are disabled); the
// caller then reads the shared snapshot directly — always correct, just not
// core-private. The caller must Unlock the returned replica.
func (e *Engine) acquireReplica(st *engineState) *engReplica {
	for _, rep := range e.replicas {
		if rep.mu.TryLock() {
			if rep.version != st.version {
				rep.flat.copyFrom(&st.flat)
				rep.version = st.version
			}
			return rep
		}
	}
	return nil
}

// claimQueryState picks the flat arrays for one query: a replica's when a
// slot is free, the shared snapshot's otherwise. claimed reports which path
// was taken (exported on Stats.ReplicaClaimed for the slow-query log — a
// query that missed every replica slot streams shared arrays across cores,
// a plausible tail-latency cause worth recording). release must be called
// when the query is done.
func (e *Engine) claimQueryState(st *engineState) (flat *engineFlat, release func(), claimed bool) {
	if rep := e.acquireReplica(st); rep != nil {
		return &rep.flat, rep.mu.Unlock, true
	}
	return &st.flat, func() {}, false
}

// checkTypeWeights validates one weight vector against the engine's sets.
// The number of types is immutable — mutations add and remove objects, never
// whole sets — so this needs no snapshot.
func (e *Engine) checkTypeWeights(typeWeights []float64) error {
	if len(typeWeights) != len(e.in.Sets) {
		return fmt.Errorf("query: %d type weights for %d sets", len(typeWeights), len(e.in.Sets))
	}
	for ti, w := range typeWeights {
		if w <= 0 {
			return fmt.Errorf("%w (type %d)", ErrBadWeight, ti)
		}
	}
	return nil
}

// NewEngine prepares an engine for the given input evaluating with method
// (RRB or MBRB; SSC has no reusable state and is rejected). The TypeWeight
// values in the input's objects are placeholders — every Query overrides
// them — but object weights and ObjKinds are baked into the prepared MOVD.
func NewEngine(in Input, method Method) (*Engine, error) {
	if method != RRB && method != MBRB {
		return nil, fmt.Errorf("query: engine requires RRB or MBRB, got %v", method)
	}
	if err := in.validate(); err != nil {
		return nil, err
	}
	e := &Engine{in: in, method: method}
	e.mode = core.RRB
	if method == MBRB {
		e.mode = core.MBRB
	}
	start := time.Now()
	// Reuse the standard pipeline for modules 1-2 by running a solve with a
	// captured MOVD would recompute the optimizer; instead build directly.
	// Workers > 1 parallelises both modules exactly as Solve does.
	basics, fps, cacheStats, err := in.buildBasics(method, e.mode, nil)
	if err != nil {
		return nil, err
	}
	var stats core.OverlapStats
	acc, err := in.cachedOverlapChain(nil, basics, fps, &stats, &cacheStats, nil)
	if err != nil {
		return nil, err
	}
	e.cacheStats = cacheStats
	combos := acc.Groups()
	e.state.Store(&engineState{
		version:       1,
		sets:          in.Sets,
		basics:        basics,
		fps:           fps,
		movd:          acc,
		combos:        combos,
		flat:          in.buildFlat(in.Sets, combos),
		pointsManaged: acc.PointsManaged(),
	})
	e.dyn = make([]*typeDynamic, len(in.Sets))
	e.initReplicas()
	e.prepTime = time.Since(start)
	return e, nil
}

// PrepTime reports how long Prepare (VD generation + overlap) took.
func (e *Engine) PrepTime() time.Duration { return e.prepTime }

// CacheStats reports the diagram-cache hits and misses of the preparation's
// VD stage (Entries/Bytes snapshot the cache as of preparation time).
func (e *Engine) CacheStats() CacheStats { return e.cacheStats }

// Version reports the current snapshot version: 1 after preparation,
// incremented by every successful InsertObject/DeleteObject.
func (e *Engine) Version() int64 { return e.state.Load().version }

// OVRs returns the size of the current prepared MOVD.
func (e *Engine) OVRs() int { return e.state.Load().movd.Len() }

// Combinations returns the number of candidate object combinations the
// current prepared MOVD admits.
func (e *Engine) Combinations() int { return len(e.state.Load().combos) }

// ObjectCounts returns the current number of objects per type.
func (e *Engine) ObjectCounts() []int {
	st := e.state.Load()
	out := make([]int, len(st.sets))
	for ti, set := range st.sets {
		out[ti] = len(set)
	}
	return out
}

// Query answers the MOLQ with per-type weights w^t given in typeWeights
// (len must equal the number of object sets; all entries positive). Object
// weights and ς^o families are those baked in at preparation. Query is safe
// for concurrent use, including concurrently with mutations: it reads one
// immutable snapshot end to end, and its problem is that snapshot's
// geometry plus typeWeights as the per-type scale, folded into each weight
// as the scan reads it.
func (e *Engine) Query(typeWeights []float64) (Result, error) {
	return e.QueryContext(context.Background(), typeWeights)
}

// QueryContext is Query honouring a context: cancellation stops the
// optimizer's workers within one group's solve time and returns the
// context's error. The scan is parallel only when Workers > 1.
func (e *Engine) QueryContext(ctx context.Context, typeWeights []float64) (Result, error) {
	if err := e.checkTypeWeights(typeWeights); err != nil {
		return Result{}, err
	}
	st := e.state.Load()
	res := Result{Method: e.method}
	var root *obs.Span
	if e.in.Trace {
		root = obs.StartSpanCtx(ctx, "engine-query/"+e.method.String())
		res.Stats.Trace = root
	}
	start := time.Now()
	flat, release, claimed := e.claimQueryState(st)
	defer release()
	res.Stats.ReplicaClaimed = claimed
	p := flat.problemFor(typeWeights)
	batches, err := fermat.CostBoundMultiBatchFlatCtx(ctx, []fermat.FlatProblem{p}, e.in.options(), max(e.in.Workers, 1))
	if err != nil {
		return res, err
	}
	batch := batches[0]
	res.Loc = batch.Loc
	res.Cost = batch.Cost
	res.Stats.Groups = flat.groups.Len()
	res.Stats.OVRs = st.movd.Len()
	res.Stats.PointsManaged = st.pointsManaged
	res.Stats.Fermat = batch.Stats
	res.Stats.OptimizeTime = time.Since(start)
	res.Stats.TotalTime = res.Stats.OptimizeTime
	if root != nil {
		optSpan := root.Child("optimize")
		optSpan.SetAttr("groups", res.Stats.Groups)
		optSpan.SetAttr("weiszfeld_iters", batch.Stats.TotalIters)
		optSpan.EndWith(res.Stats.OptimizeTime)
		root.EndWith(res.Stats.TotalTime)
	}
	return res, nil
}

// QueryBatch answers the MOLQ for many weight vectors over one prepared
// snapshot, returning one Result per vector in order. The per-vector group
// and offset setup is assembled from the snapshot's precomputed flat combo
// arrays, and all vectors' candidate × weight-vector Fermat-Weber problems
// fan out through a single shared worker pool (Workers goroutines; 1 runs
// sequentially and ≤ 0 means GOMAXPROCS), each vector under its own
// Algorithm-5 cost bound. Every answer equals the vector's own Query answer:
// the optimizer's tie rule (lowest group index among equal costs) makes the
// winner independent of the worker count and of the batch's scan order.
// Compared with len(vecs) sequential Query calls this amortizes both the
// setup and the pool spin-up, which is the paper's own serving scenario:
// repeated evaluation under different user weight settings (Sec 1, Sec 6).
//
// Every vector is validated before any work runs; one bad vector fails the
// whole batch. Per-Result phase durations report the shared batch's wall
// clock — concurrent vectors aren't individually attributable.
func (e *Engine) QueryBatch(vecs [][]float64) ([]Result, error) {
	return e.QueryBatchContext(context.Background(), vecs)
}

// QueryBatchContext is QueryBatch honouring a context (see QueryContext).
// An empty batch is answered with an empty, non-nil result slice — callers
// (and JSON encoders downstream) can rely on len(vecs) results always.
func (e *Engine) QueryBatchContext(ctx context.Context, vecs [][]float64) ([]Result, error) {
	if len(vecs) == 0 {
		return []Result{}, nil
	}
	for vi, tw := range vecs {
		if err := e.checkTypeWeights(tw); err != nil {
			return nil, fmt.Errorf("vector %d: %w", vi, err)
		}
	}
	st := e.state.Load()
	var root *obs.Span
	if e.in.Trace {
		root = obs.StartSpanCtx(ctx, fmt.Sprintf("engine-query-batch/%s/%d", e.method.String(), len(vecs)))
	}
	start := time.Now()
	flat, release, claimed := e.claimQueryState(st)
	defer release()
	problems := make([]fermat.FlatProblem, len(vecs))
	for vi, tw := range vecs {
		problems[vi] = flat.problemFor(tw)
	}
	batches, err := fermat.CostBoundMultiBatchFlatCtx(ctx, problems, e.in.options(), e.in.Workers)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	// The vectors were solved together over one pool, so wall-clock time is
	// only attributable to the batch: report it in BatchElapsed on every
	// item, and give each item its amortized share as the per-item phase
	// time, so summing per-item times over the batch yields the batch cost —
	// not len(vecs) times it.
	share := elapsed / time.Duration(len(vecs))
	out := make([]Result, len(vecs))
	for vi, b := range batches {
		out[vi] = Result{Method: e.method, Loc: b.Loc, Cost: b.Cost}
		st2 := &out[vi].Stats
		st2.Groups = flat.groups.Len()
		st2.OVRs = st.movd.Len()
		st2.PointsManaged = st.pointsManaged
		st2.Fermat = b.Stats
		st2.OptimizeTime = share
		st2.TotalTime = share
		st2.BatchElapsed = elapsed
		st2.ReplicaClaimed = claimed
	}
	if root != nil {
		root.SetAttr("vectors", len(vecs))
		root.SetAttr("groups_per_vector", len(st.combos))
		root.EndWith(elapsed)
		out[0].Stats.Trace = root
	}
	return out, nil
}

// MWGDAt scores an arbitrary candidate location under the given type
// weights (linear scan of the current sets).
func (e *Engine) MWGDAt(q geom.Point, typeWeights []float64) float64 {
	st := e.state.Load()
	total := 0.0
	for ti, set := range st.sets {
		additive := e.in.kind(ti) == AdditiveObjWeights
		wt := 1.0
		if ti < len(typeWeights) {
			wt = typeWeights[ti]
		}
		best := -1.0
		for _, o := range set {
			var v float64
			if additive {
				v = wt * (q.Dist(o.Loc) + o.ObjWeight)
			} else {
				v = wt * o.ObjWeight * q.Dist(o.Loc)
			}
			if best < 0 || v < best {
				best = v
			}
		}
		if best >= 0 {
			total += best
		}
	}
	return total
}
