// Package query evaluates Multi-criteria Optimal Location Queries (MOLQ,
// Eq 4). It provides the three solutions the paper compares:
//
//   - SSC — Sequential Scan Combinations (Algorithm 1), the baseline that
//     enumerates every object combination with a two-point upper-bound
//     filter;
//   - RRB — the MOVD-based solution of Fig 3 with real region boundaries;
//   - MBRB — the MOVD-based solution with minimum-bounding-rectangle
//     boundaries.
//
// The optimizer stage follows Sec 5.4: it specialises to the
// multiplicatively-based weight functions (the paper's default), folding
// w^t·w^o into a single Fermat-Weber weight per object, and uses the
// cost-bound batch solver (Algorithm 5) unless disabled.
package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"molq/internal/core"
	"molq/internal/fermat"
	"molq/internal/geom"
	"molq/internal/mwvd"
	"molq/internal/obs"
	"molq/internal/voronoi"
	"molq/internal/weighted"
)

// Method selects a MOLQ solution strategy.
type Method int

const (
	// SSC is the Sequential Scan Combinations baseline (Algorithm 1).
	SSC Method = iota
	// RRB is the MOVD solution with Real Region as Boundary (Sec 5.2).
	RRB
	// MBRB is the MOVD solution with MBR as Boundary (Sec 5.3).
	MBRB
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case SSC:
		return "SSC"
	case RRB:
		return "RRB"
	case MBRB:
		return "MBRB"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// WeightKind selects the object weight function ς^o of a type (Sec 2.1).
// The type weight function ς^t is always multiplicative, the paper's
// optimizer setting (Sec 5.4).
type WeightKind int

const (
	// MultiplicativeObjWeights is ς^o(d, w) = d·w (the default).
	MultiplicativeObjWeights WeightKind = iota
	// AdditiveObjWeights is ς^o(d, w) = d + w (the additively weighted
	// Voronoi variant of Fig 5).
	AdditiveObjWeights
)

// String implements fmt.Stringer.
func (k WeightKind) String() string {
	switch k {
	case MultiplicativeObjWeights:
		return "multiplicative"
	case AdditiveObjWeights:
		return "additive"
	default:
		return fmt.Sprintf("WeightKind(%d)", int(k))
	}
}

// Input describes one MOLQ instance.
type Input struct {
	// Sets is 𝔼 = {P_1, …, P_n}: one slice of objects per type. Object.Type
	// must equal the set's index.
	Sets [][]core.Object
	// Bounds is the search space ℝ.
	Bounds geom.Rect
	// Epsilon is the ε stopping bound for iterative Fermat-Weber solves
	// (default fermat.DefaultEpsilon).
	Epsilon float64
	// WeightedEpsilon selects how weighted (non-uniform object weight) basic
	// diagrams are realized:
	//   - 0 (default): automatic — under MBRB, sets with at least
	//     weightedApproxMinSites objects use the near-linear approximate MWVD
	//     refinement (internal/mwvd) at mwvd.AutoEpsilon (DefaultEpsilon up
	//     to 50k sites per core, loosening as √n past it), smaller sets keep
	//     the exact O(n²) Apollonius pair construction; under RRB every
	//     weighted set uses the approximate cell construction at
	//     mwvd.AutoEpsilon (there is no exact polygonal realization of
	//     curved weighted boundaries);
	//   - > 0: always use the approximate construction with this relative
	//     error bound ε (candidate regions may admit sites up to (1+ε) from
	//     optimal — still conservative, never false-negative);
	//   - < 0: always use the exact pair construction. MBRB only: weighted
	//     RRB then fails with ErrWeightedRRB.
	// Under RRB the approximate construction serves refined leaf cells
	// clipped into rectangular regions (mwvd.Diagram.EachLeaf →
	// core.FromCellRegions) instead of per-site boxes. Uniform-weight types
	// are unaffected (they use exact Voronoi diagrams).
	WeightedEpsilon float64
	// DisableCostBound switches the optimizer to the "Original" sequential
	// Fermat-Weber batch (used by the Fig 10 baseline); by default the
	// Algorithm 5 cost-bound optimizer runs.
	DisableCostBound bool
	// ObjKinds gives the object weight function per type; nil or short means
	// multiplicative for the missing entries.
	ObjKinds []WeightKind
	// Workers > 1 parallelises all three Fig-3 modules: the VD Generator
	// (one goroutine per type), the MOVD Overlapper (sharded plane sweep
	// plus a balanced parallel reduction of the ⊕ chain), and the
	// cost-bound Optimizer (shared atomic bound). 0 or 1 runs sequentially.
	// Ties go to the lowest-index combination, but the sharded ⊕ orders
	// OVRs by strip, so an exact tie between multi-type combinations may
	// resolve to a different optimum at Workers > 1 than at 1 (the spilled
	// final ⊕ always streams sequentially). The answer is deterministic for
	// a given worker count; work statistics depend on scheduling.
	Workers int
	// PruneOverlap enables the Sec-8 future-work optimisation: combinations
	// whose best possible cost (a box lower bound) exceeds a sampled upper
	// bound of the optimum are dropped during the MOVD overlap itself, before
	// they fan out into later overlaps or reach the optimizer. The result is
	// unchanged; only work is saved.
	PruneOverlap bool
	// Acceleration is the Weiszfeld over-relaxation factor (see
	// fermat.Options.Acceleration); 0 keeps the paper's plain iteration.
	Acceleration float64
	// SpillDir, when non-empty, runs the final ⊕ out of core: its OVRs are
	// streamed to a temporary snapshot in this directory (removed after the
	// solve) and the optimizer streams them back, so the final — largest —
	// MOVD never resides in memory (the Sec-8 disk-based technique).
	// Applies to RRB/MBRB with two or more object types.
	SpillDir string
	// Cache overrides the diagram cache memoizing per-type basic MOVDs
	// across solves; nil uses the process-wide DefaultDiagramCache. See
	// cache.go for the fingerprinting rules.
	Cache *DiagramCache
	// DisableDiagramCache rebuilds every basic diagram from scratch,
	// bypassing the cache entirely (used by construction benchmarks and
	// callers that mutate object sets in place between solves).
	DisableDiagramCache bool
	// Replicas is the number of per-core read replicas an Engine keeps of its
	// flat query state (see engReplica): concurrent Query/QueryBatch calls
	// each claim a private replica, so readers on different cores never
	// stream the same cache-hot arrays. 0 (the default) disables replication
	// — queries read the shared snapshot, which is always correct. Only
	// engines use this; one-shot Solve calls ignore it.
	Replicas int
	// Trace records a span tree over the solve — one span per Fig-3 module,
	// one per pairwise ⊕ (with per-strip children under the parallel
	// engine), one per Fermat-Weber batch — exported on Result.Stats.Trace.
	// The phase span durations are set from the same measurements as the
	// Stats phase durations, so the two always agree. Off (the default),
	// the pipeline carries no tracing overhead beyond nil checks.
	Trace bool
}

// kind returns the object weight function family of type ti.
func (in *Input) kind(ti int) WeightKind {
	if ti < len(in.ObjKinds) {
		return in.ObjKinds[ti]
	}
	return MultiplicativeObjWeights
}

// Stats reports the work done by a solve, phase by phase (Fig 3 modules).
type Stats struct {
	VDTime       time.Duration // VD Generator
	OverlapTime  time.Duration // MOVD Overlapper
	OptimizeTime time.Duration // Optimizer
	TotalTime    time.Duration
	// BatchElapsed is the wall clock of the whole Engine.QueryBatch call this
	// result came from (zero outside batched queries). Batched vectors are
	// solved together over one worker pool, so per-item phase times report
	// each item's amortized share of BatchElapsed, not its own wall clock.
	BatchElapsed time.Duration

	OVRs          int // |MOVD| after the final overlap (0 for SSC)
	Groups        int // Fermat-Weber problems examined
	PointsManaged int // boundary points held by the final MOVD
	Combinations  int // combinations enumerated (SSC only)

	// ReplicaClaimed reports whether an engine query ran on a private
	// per-core read replica (false: it fell back to the shared snapshot,
	// either because replication is off or every slot was busy — a
	// tail-latency signal the slow-query log records).
	ReplicaClaimed bool

	Overlap core.OverlapStats // accumulated across sequential overlaps
	Fermat  fermat.BatchStats
	Cache   CacheStats // diagram-cache lookups of this solve's VD stage

	// Trace is the solve's span tree when Input.Trace was set (nil
	// otherwise). Phase span durations equal the phase durations above.
	Trace *obs.Span `json:"-"`
}

// Result is the answer to a MOLQ.
type Result struct {
	Loc    geom.Point
	Cost   float64 // WGD of the winning combination at Loc (= MWGD(Loc))
	Method Method
	Stats  Stats
}

// Validation errors.
var (
	ErrNoSets        = errors.New("query: no object sets")
	ErrEmptySet      = errors.New("query: empty object set")
	ErrBadWeight     = errors.New("query: object weights must be positive")
	ErrWeightedRRB   = errors.New("query: exact RRB requires uniform object weights per type (weighted Voronoi boundaries are curves; leave WeightedEpsilon ≥ 0 for approximate weighted RRB cells, or use MBRB/SSC)")
	ErrUnknownMethod = errors.New("query: unknown method")
	// ErrCostOverflow reports type weights under which the optimum's cost
	// leaves the float64 range: each weight is positive and finite, but
	// their products with the distances are not.
	ErrCostOverflow = errors.New("query: type weights overflow the optimum's cost")
)

func (in *Input) validate() error {
	if len(in.Sets) == 0 {
		return ErrNoSets
	}
	if in.Bounds.IsEmpty() {
		return fmt.Errorf("query: empty search space %v", in.Bounds)
	}
	if len(in.ObjKinds) > len(in.Sets) {
		return fmt.Errorf("query: %d ObjKinds for %d sets", len(in.ObjKinds), len(in.Sets))
	}
	for ti, set := range in.Sets {
		if len(set) == 0 {
			return fmt.Errorf("%w (type %d)", ErrEmptySet, ti)
		}
		for _, o := range set {
			if o.TypeWeight <= 0 || o.ObjWeight <= 0 {
				return fmt.Errorf("%w (type %d object %d)", ErrBadWeight, ti, o.ID)
			}
			if o.Type != ti {
				return fmt.Errorf("query: object %d in set %d has Type=%d", o.ID, ti, o.Type)
			}
		}
	}
	return nil
}

func (in *Input) options() fermat.Options {
	return fermat.Options{Epsilon: in.Epsilon, Acceleration: in.Acceleration}
}

// fold returns object o's Fermat-Weber weight and constant cost term. With
// the multiplicative ς^o, WD = (w^t·w^o)·d — a pure weight. With the
// additive ς^o, WD = w^t·(d + w^o) = w^t·d + w^t·w^o — weight w^t plus a
// constant that accumulates into the group's offset.
func (in *Input) fold(o core.Object) (w, off float64) {
	if in.kind(o.Type) == AdditiveObjWeights {
		return o.TypeWeight, o.TypeWeight * o.ObjWeight
	}
	return o.TypeWeight * o.ObjWeight, 0
}

// toProblem folds a combination into a Fermat-Weber problem and its offset.
func (in *Input) toProblem(objs []core.Object) (fermat.Group, float64) {
	g := make(fermat.Group, len(objs))
	offset := 0.0
	for i, o := range objs {
		w, off := in.fold(o)
		g[i] = fermat.WeightedPoint{P: o.Loc, W: w}
		offset += off
	}
	return g, offset
}

// optimize runs Module 3 of Fig 3 over the final diagram's combinations: the
// Algorithm 5 batch driver over a flat problem, in parallel only when
// Workers > 1, or with DisableCostBound the "Original" baseline of Fig 10:
// every combination solved in order to the ε stopping rule, no pruning.
func (in *Input) optimize(ctx context.Context, combos [][]core.Object) (fermat.BatchResult, error) {
	if in.DisableCostBound {
		return in.stream(ctx, false, func(offer func([]core.Object) error) error {
			for _, c := range combos {
				if err := offer(c); err != nil {
					return err
				}
			}
			return nil
		})
	}
	g := in.flatGroups(combos, false)
	p := fermat.FlatProblem{Geom: &g, Scale: []float64{1}}
	out, err := fermat.CostBoundMultiBatchFlatCtx(ctx, []fermat.FlatProblem{p}, in.options(), max(in.Workers, 1))
	if err != nil {
		return fermat.BatchResult{}, err
	}
	return out[0], nil
}

// stream is the in-order optimizer: each calls offer once per combination,
// in order, and stream folds every one through toProblem into a single
// Streamer, with (useBound) or without Algorithm 5 pruning, checking ctx
// every 64 offers. It serves the DisableCostBound scan and the spilled
// solve's pass over its file.
func (in *Input) stream(ctx context.Context, useBound bool, each func(offer func([]core.Object) error) error) (fermat.BatchResult, error) {
	s := fermat.NewStreamer(in.options(), useBound)
	done := ctx.Done()
	offered := 0
	err := each(func(c []core.Object) error {
		if done != nil && offered%64 == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		offered++
		return s.Offer(in.toProblem(c))
	})
	if err != nil {
		return fermat.BatchResult{}, err
	}
	return s.Result()
}

// Solve evaluates the query with the chosen method.
func Solve(in Input, method Method) (Result, error) {
	return SolveContext(context.Background(), in, method)
}

// SolveContext is Solve honouring a context: cancellation propagates into
// the optimizer's scan (and its worker pool when Workers > 1), which stops
// within one group's solve time and returns the context's error. The
// construction modules run to completion — cancellation is checked between
// pipeline phases and throughout the optimizer, where solves spend their
// time at scale.
func SolveContext(ctx context.Context, in Input, method Method) (Result, error) {
	if err := in.validate(); err != nil {
		return Result{}, err
	}
	switch method {
	case SSC:
		return solveSSC(ctx, in)
	case RRB, MBRB:
		return solveMOVD(ctx, in, method)
	default:
		return Result{}, fmt.Errorf("%w: %d", ErrUnknownMethod, int(method))
	}
}

// uniformWeights reports whether every object of the set carries the same
// object weight (an ordinary Voronoi diagram then suffices).
func uniformWeights(set []core.Object) bool {
	for _, o := range set[1:] {
		if o.ObjWeight != set[0].ObjWeight {
			return false
		}
	}
	return true
}

// vdBuildHook, when non-nil, is called once per actual basic-diagram
// construction (cache hits and coalesced waits skip it). Tests install it to
// count builds and prove coalescing semantics; production leaves it nil.
var vdBuildHook func()

// constructBasic runs the actual Voronoi/dominance construction for one
// object set — the work the diagram cache memoizes and coalesces. span (may
// be nil) receives the weighted prepare-phase children so slow weighted
// builds break down in the flight recorder.
func (in *Input) constructBasic(set []core.Object, ti int, method Method, mode core.Mode, span *obs.Span) (*core.MOVD, error) {
	if vdBuildHook != nil {
		vdBuildHook()
	}
	if uniformWeights(set) {
		// A uniform object weight preserves the nearest-site order for
		// both ς^o families, so the ordinary Voronoi diagram is exact.
		return ordinaryBasic(set, ti, in.Bounds, mode)
	}
	if method == RRB {
		if in.WeightedEpsilon < 0 {
			// The caller forced the exact construction, which has no
			// polygonal RRB realization.
			return nil, ErrWeightedRRB
		}
		return in.weightedCellBasic(set, ti, span)
	}
	return in.weightedBasic(set, ti, span)
}

// buildBasics runs Module 1 of Fig 3 (the VD Generator) for every object
// set, at most Workers goroutines at a time when Workers > 1 (Workers is the
// solve's global parallelism budget, so the fan-out is clamped rather than
// one goroutine per type). Each basic diagram is looked up in the configured
// diagram cache first; a cached diagram is shared with every other solve
// that hit the same fingerprint and must not be mutated (the pipeline only
// reads basic MOVDs). Concurrent misses on one fingerprint — N identical
// cold solves racing — coalesce onto a single construction through
// DiagramCache.getOrBuild. The returned fingerprints (nil when no cache is
// configured) key the overlap-level cache; the CacheStats counts this call's
// hits, misses and coalesced waits and snapshots the cache state.
func (in *Input) buildBasics(method Method, mode core.Mode, span *obs.Span) ([]*core.MOVD, []fingerprint, CacheStats, error) {
	basics := make([]*core.MOVD, len(in.Sets))
	cache := in.diagramCache()
	outcomes := make([]lookupOutcome, len(in.Sets))
	var fps []fingerprint
	if cache != nil {
		fps = make([]fingerprint, len(in.Sets))
	}
	buildOne := func(ti int) error {
		var sp *obs.Span
		if span != nil {
			sp = span.Child(fmt.Sprintf("vd type %d", ti))
			defer sp.End()
		}
		set := in.Sets[ti]
		if cache == nil {
			m, err := in.constructBasic(set, ti, method, mode, sp)
			if err != nil {
				return err
			}
			basics[ti] = m
			sp.SetAttr("ovrs", m.Len())
			return nil
		}
		fp := fingerprintSet(set, ti, in.Bounds, mode, in.kind(ti), in.Epsilon, in.WeightedEpsilon)
		fps[ti] = fp
		m, outcome, err := cache.getOrBuild(fp, func() (*core.MOVD, error) {
			return in.constructBasic(set, ti, method, mode, sp)
		})
		if err != nil {
			return err
		}
		outcomes[ti] = outcome
		basics[ti] = m
		switch outcome {
		case lookupHit:
			sp.SetAttr("cache", "hit")
		case lookupCoalesced:
			sp.SetAttr("cache", "coalesced")
		default:
			sp.SetAttr("cache", "miss")
		}
		sp.SetAttr("ovrs", m.Len())
		return nil
	}
	var cs CacheStats
	finish := func() CacheStats {
		if cache == nil {
			return cs
		}
		for _, o := range outcomes {
			switch o {
			case lookupHit:
				cs.Hits++
			case lookupCoalesced:
				cs.Coalesced++
			default:
				cs.Misses++
			}
		}
		snap := cache.Stats()
		cs.Entries, cs.Bytes, cs.Capacity = snap.Entries, snap.Bytes, snap.Capacity
		return cs
	}
	if in.Workers > 1 && len(in.Sets) > 1 {
		var wg sync.WaitGroup
		errs := make([]error, len(in.Sets))
		sem := make(chan struct{}, in.Workers)
		for ti := range in.Sets {
			wg.Add(1)
			sem <- struct{}{}
			go func(ti int) {
				defer wg.Done()
				defer func() { <-sem }()
				errs[ti] = buildOne(ti)
			}(ti)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, nil, cs, err
			}
		}
	} else {
		for ti := range in.Sets {
			if err := buildOne(ti); err != nil {
				return nil, nil, cs, err
			}
		}
	}
	return basics, fps, finish(), nil
}

// cachedOverlapChain runs Module 2 of Fig 3 over the given diagrams with
// core.Overlap at in.Workers — the sequential left fold of Eq 27 at
// Workers ≤ 1, the parallel overlap engine above — accumulating its sweep
// statistics into stats, behind the level-two cache: the final
// overlapped diagram is memoized under the ordered basic fingerprints, so a
// repeat solve (or engine preparation) over unchanged data skips Module 2
// entirely. Single-set inputs are not cached at this level — the "chain" is
// the basic diagram itself, already a level-one entry. Concurrent misses on
// one overlap fingerprint coalesce onto a single ⊕ chain the same way basic
// builds do. The lookup is counted into cs alongside the basic-diagram hits
// and misses.
func (in *Input) cachedOverlapChain(prune core.PruneFunc, movds []*core.MOVD, fps []fingerprint, stats *core.OverlapStats, cs *CacheStats, span *obs.Span) (*core.MOVD, error) {
	build := func() (*core.MOVD, error) {
		acc, st, err := core.Overlap(prune, in.Workers, span, movds...)
		stats.Add(st)
		return acc, err
	}
	cache := in.diagramCache()
	if cache == nil || fps == nil || len(movds) < 2 || len(movds) != len(in.Sets) {
		return build()
	}
	key := fingerprintOverlap(fps, prune != nil)
	m, outcome, err := cache.getOrBuild(key, build)
	if err != nil {
		return nil, err
	}
	switch outcome {
	case lookupHit:
		cs.Hits++
		span.SetAttr("cache", "hit")
	case lookupCoalesced:
		cs.Coalesced++
		span.SetAttr("cache", "coalesced")
	default:
		cs.Misses++
		span.SetAttr("cache", "miss")
	}
	snap := cache.Stats()
	cs.Entries, cs.Bytes, cs.Capacity = snap.Entries, snap.Bytes, snap.Capacity
	return m, nil
}

// solveMOVD runs the three-module pipeline of Fig 3.
func solveMOVD(ctx context.Context, in Input, method Method) (Result, error) {
	mode := core.RRB
	if method == MBRB {
		mode = core.MBRB
	}
	res := Result{Method: method}
	var root *obs.Span
	if in.Trace {
		// StartSpanCtx joins the trace identity propagated in ctx (e.g. the
		// httpapi middleware's traceparent), so the span tree, access log
		// and flight recorder all share one trace ID.
		root = obs.StartSpanCtx(ctx, "solve/"+method.String())
		res.Stats.Trace = root
	}
	totalStart := time.Now()

	// Module 1: VD Generator (basic MOVDs, Property 7), memoized through the
	// fingerprinted diagram cache.
	vdSpan := root.Child("vd-build")
	vdStart := time.Now()
	basics, fps, cacheStats, err := in.buildBasics(method, mode, vdSpan)
	if err != nil {
		return res, err
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	res.Stats.VDTime = time.Since(vdStart)
	res.Stats.Cache = cacheStats
	vdSpan.SetAttr("cache_hits", cacheStats.Hits)
	vdSpan.SetAttr("cache_misses", cacheStats.Misses)
	vdSpan.EndWith(res.Stats.VDTime)

	// Module 2: MOVD Overlapper (⊕ chain, Eq 27), optionally with
	// combination pruning (Sec 8). With SpillDir the final — largest —
	// overlap streams to disk instead of materialising.
	ovSpan := root.Child("overlap")
	ovStart := time.Now()
	var prune core.PruneFunc
	if in.PruneOverlap {
		pruneSpan := ovSpan.Child("prune-bound")
		u := in.upperBound()
		pruneSpan.SetAttr("upper_bound", u)
		pruneSpan.End()
		prune = in.pruneFunc(u)
	}
	spillLast := in.SpillDir != "" && len(basics) >= 2
	inMemory := basics
	if spillLast {
		// The spilled final overlap streams to disk and is never materialised,
		// so the overlap-level cache does not apply (cachedOverlapChain sees a
		// partial chain and falls through).
		inMemory = basics[:len(basics)-1]
	}
	acc, err := in.cachedOverlapChain(prune, inMemory, fps, &res.Stats.Overlap, &res.Stats.Cache, ovSpan)
	if err != nil {
		return res, err
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if spillLast {
		return in.finishSpilled(ctx, res, acc, basics[len(basics)-1], prune, ovStart, totalStart, root, ovSpan)
	}
	res.Stats.OverlapTime = time.Since(ovStart)
	res.Stats.OVRs = acc.Len()
	res.Stats.PointsManaged = acc.PointsManaged()
	ovSpan.SetAttr("ovrs", res.Stats.OVRs)
	ovSpan.SortChildrenByStart()
	ovSpan.EndWith(res.Stats.OverlapTime)

	// Module 3: Optimizer (Sec 5.4).
	optSpan := root.Child("optimize")
	optStart := time.Now()
	combos := acc.Groups()
	res.Stats.Groups = len(combos)
	batch, err := in.optimize(ctx, combos)
	if err != nil {
		return res, err
	}
	res.Stats.OptimizeTime = time.Since(optStart)
	res.Stats.Fermat = batch.Stats
	optSpan.SetAttr("groups", res.Stats.Groups)
	optSpan.SetAttr("weiszfeld_iters", batch.Stats.TotalIters)
	optSpan.SetAttr("prefiltered", batch.Stats.Prefiltered)
	optSpan.EndWith(res.Stats.OptimizeTime)
	res.Loc = batch.Loc
	res.Cost = batch.Cost
	res.Stats.TotalTime = time.Since(totalStart)
	root.EndWith(res.Stats.TotalTime)
	return res, nil
}

func ordinaryBasic(set []core.Object, ti int, bounds geom.Rect, mode core.Mode) (*core.MOVD, error) {
	sites := make([]geom.Point, len(set))
	for i, o := range set {
		sites[i] = o.Loc
	}
	d, err := voronoi.Compute(sites, bounds)
	if err != nil {
		return nil, fmt.Errorf("query: type %d: %w", ti, err)
	}
	return core.FromVoronoi(d, set, ti, mode)
}

// weightedApproxMinSites is the automatic-mode crossover. Below it the exact
// O(n²) Apollonius pair construction wins end to end — measured at two
// weighted types the exact solve is 2.4× faster at n=1000 and breaks even
// near n≈2500 (the approximate path's tighter boxes claw back optimizer
// time, but not its prepare constant) — above it the near-linear mwvd
// refinement wins by a quadratically widening margin (14.5× prepare at 50k).
const weightedApproxMinSites = 2048

// weightedBasic realizes the MBRB basic diagram of a weighted object set.
// WeightedEpsilon picks the construction (see Input.WeightedEpsilon); both
// yield conservative per-site boxes, so MBRB correctness is identical — the
// approximate path may only admit extra Fermat-Weber candidates, bounded by ε.
func (in *Input) weightedBasic(set []core.Object, ti int, span *obs.Span) (*core.MOVD, error) {
	sites, metric := in.weightedSites(set, ti)
	approx := in.WeightedEpsilon > 0 ||
		(in.WeightedEpsilon == 0 && len(set) >= weightedApproxMinSites)
	var mbrs []geom.Rect
	if approx {
		m, _, err := mwvd.ApproxDominanceMBRs(sites, in.Bounds, mwvd.Options{
			Epsilon: in.WeightedEpsilon, // 0 → mwvd.AutoEpsilon
			Workers: in.Workers,
			Metric:  metric,
			Span:    span,
		})
		if err != nil {
			return nil, fmt.Errorf("query: type %d: %w", ti, err)
		}
		mbrs = m
	} else if in.kind(ti) == AdditiveObjWeights {
		mbrs = weighted.AdditiveDominanceMBRs(sites, in.Bounds)
	} else {
		mbrs = weighted.DominanceMBRsParallel(sites, in.Bounds, in.Workers)
	}
	return core.FromRegions(mbrs, set, ti, in.Bounds)
}

// weightedCellBasic realizes the RRB basic diagram of a weighted object set:
// the approximate MWVD is built tree-mode and its refined leaf cells —
// sibling quartets merged — are clipped into rectangular OVR regions, one
// per (cell, surviving object). The cells conservatively cover each object's
// true dominance region, so the overlap keeps every true combination; extra
// ambiguous-cell overlaps only add false-positive combinations, which the
// optimizer already tolerates (they can never cost less than the optimum).
// Always approximate: curved weighted boundaries have no exact polygonal
// form, so the 2048-site MBRB crossover does not apply here.
func (in *Input) weightedCellBasic(set []core.Object, ti int, span *obs.Span) (*core.MOVD, error) {
	sites, metric := in.weightedSites(set, ti)
	d, err := mwvd.Build(sites, in.Bounds, mwvd.Options{
		Epsilon: in.WeightedEpsilon, // 0 → mwvd.AutoEpsilon
		Workers: in.Workers,
		Metric:  metric,
		Span:    span,
	})
	if err != nil {
		return nil, fmt.Errorf("query: type %d: %w", ti, err)
	}
	var cells []core.CellRegion
	d.EachLeaf(func(rect geom.Rect, leafSites []int32) {
		for _, s := range leafSites {
			cells = append(cells, core.CellRegion{Rect: rect, Obj: int(s)})
		}
	})
	return core.FromCellRegions(cells, set, ti, in.Bounds)
}

// weightedSites converts an object set to weighted Voronoi generators plus
// the mwvd metric matching the set's object-weight family.
func (in *Input) weightedSites(set []core.Object, ti int) ([]weighted.Site, mwvd.Metric) {
	sites := make([]weighted.Site, len(set))
	for i, o := range set {
		sites[i] = weighted.Site{P: o.Loc, W: o.ObjWeight}
	}
	metric := mwvd.Multiplicative
	if in.kind(ti) == AdditiveObjWeights {
		metric = mwvd.Additive
	}
	return sites, metric
}

// solveSSC implements Algorithm 1. The two-point prefilter uses the exact
// two-point optimum (the heavier endpoint) as a lower bound on the full
// combination's optimal cost.
func solveSSC(ctx context.Context, in Input) (Result, error) {
	res := Result{Method: SSC}
	var root *obs.Span
	if in.Trace {
		root = obs.StartSpanCtx(ctx, "solve/SSC")
		res.Stats.Trace = root
	}
	optSpan := root.Child("optimize")
	start := time.Now()
	opt := in.options()
	idx := make([]int, len(in.Sets))
	group := make([]core.Object, len(in.Sets))
	best := Result{Cost: 0}
	ubound := math.Inf(1)
	done := ctx.Done()
	for {
		if done != nil && res.Stats.Combinations%64 == 0 {
			select {
			case <-done:
				return res, ctx.Err()
			default:
			}
		}
		for ti, set := range in.Sets {
			group[ti] = set[idx[ti]]
		}
		res.Stats.Combinations++
		g, off := in.toProblem(group)
		skip := false
		if !in.DisableCostBound && !math.IsInf(ubound, 1) && len(g) >= 3 {
			// Alg 1 lines 4-5: optimal location of the first two objects.
			// Skip only on a strictly greater lower bound, so an exact tie
			// reaches the strict comparison below and SSC picks the winner
			// Algorithm 5 does. The pruning differs: Algorithm 5 tests three
			// pairs and aborts Weiszfeld only on a strictly greater bound.
			two, err := fermat.Solve(g[:2], opt)
			if err != nil {
				return res, err
			}
			if two.Cost+off > ubound {
				skip = true
			}
		}
		if !skip {
			bound := math.Inf(1)
			if !in.DisableCostBound {
				bound = ubound - off
			}
			sol, err := fermat.SolveBounded(g, opt, bound)
			if err != nil {
				return res, err
			}
			res.Stats.Fermat.Problems++
			res.Stats.Fermat.TotalIters += sol.Iters
			if sol.Pruned {
				res.Stats.Fermat.PrunedGroups++
			} else if cost := sol.Cost + off; cost < ubound {
				ubound = cost
				best.Loc = sol.Loc
				best.Cost = cost
			}
		} else {
			res.Stats.Fermat.Prefiltered++
		}
		// Advance the odometer over P_1 × … × P_n.
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(in.Sets[k]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
	res.Loc = best.Loc
	res.Cost = best.Cost
	res.Stats.Groups = res.Stats.Fermat.Problems
	d := time.Since(start)
	res.Stats.OptimizeTime = d
	res.Stats.TotalTime = d
	optSpan.SetAttr("combinations", res.Stats.Combinations)
	optSpan.SetAttr("problems", res.Stats.Fermat.Problems)
	optSpan.SetAttr("prefiltered", res.Stats.Fermat.Prefiltered)
	optSpan.EndWith(d)
	root.EndWith(d)
	return res, nil
}
