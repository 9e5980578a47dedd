// Package molq answers Multi-Criteria Optimal Location Queries with
// Overlapping Voronoi Diagrams, implementing the EDBT 2014 paper of that
// name (Zhang, Ku, Qin, Sun, Lu).
//
// A MOLQ takes several sets of weighted points of interest — say schools,
// bus stops and supermarkets — and returns the location of the search space
// minimising the sum of weighted distances to the nearest object of each
// type (Eq 4 of the paper). Three solution strategies are provided:
//
//   - SSC sequentially scans every object combination (Algorithm 1);
//   - RRB overlaps the per-type Voronoi diagrams keeping exact convex
//     region boundaries (Sec 5.2);
//   - MBRB overlaps them keeping only minimum bounding rectangles, trading
//     false-positive candidate regions for much cheaper overlap (Sec 5.3).
//
// All three return the same optimum (to the iteration tolerance); they
// differ only in cost. The Fermat-Weber subproblems are solved with the
// cost-bound batch optimizer of Algorithm 5.
//
// Basic usage:
//
//	q := molq.NewQuery(molq.NewRect(molq.Pt(0, 0), molq.Pt(100, 100)))
//	q.AddType("school", molq.POI(molq.Pt(20, 30), 2, 1), molq.POI(molq.Pt(80, 40), 2, 1))
//	q.AddType("market", molq.POI(molq.Pt(50, 90), 1, 1))
//	res, err := q.Solve(molq.RRB)
//	// res.Location is the optimal site, res.Cost its weighted distance sum.
package molq

import (
	"context"
	"time"

	"molq/internal/core"
	"molq/internal/dataset"
	"molq/internal/fermat"
	"molq/internal/geom"
	"molq/internal/query"
	"molq/internal/voronoi"
)

// Point is a location in the plane.
type Point = geom.Point

// Rect is an axis-aligned rectangle (the search space).
type Rect = geom.Rect

// Polygon is a simple polygon in counterclockwise order.
type Polygon = geom.Polygon

// Object is a spatial object ⟨location, type weight, object weight⟩.
type Object = core.Object

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewRect builds the rectangle spanning two corners given in any order.
func NewRect(a, b Point) Rect { return geom.NewRect(a, b) }

// POI builds an Object at p with the given type weight w^t and object weight
// w^o (both must be positive; smaller weights mean higher preference). ID
// and Type are assigned by Query.AddType.
func POI(p Point, typeWeight, objWeight float64) Object {
	return Object{Loc: p, TypeWeight: typeWeight, ObjWeight: objWeight}
}

// Method selects the solution strategy.
type Method = query.Method

// The three strategies of the paper.
const (
	SSC  = query.SSC
	RRB  = query.RRB
	MBRB = query.MBRB
)

// Options configures how a query is evaluated. The zero value is the
// paper's default pipeline: sequential, cost-bound optimizer on, plain
// Weiszfeld iteration, everything in memory.
type Options struct {
	// Epsilon is the relative error bound ε of the iterative Fermat-Weber
	// stopping rule (0 means the 1e-3 default).
	Epsilon float64
	// WeightedEpsilon controls how basic diagrams are realized for types
	// with non-uniform object weights, whose exact construction is O(n²)
	// Apollonius pairs:
	//   - 0 (default): automatic — under MBRB, large weighted sets (≥2048
	//     objects) switch to a near-linear approximate construction whose
	//     relative error bound is derived from the machine (0.15 up to 50k
	//     objects per core, loosening as √n past that, capped at 0.5) while
	//     small sets stay exact; under RRB every weighted type uses the
	//     approximate construction, serving its refined cells as
	//     rectangular regions;
	//   - > 0: always approximate, with this error bound: every candidate
	//     the diagram admits costs at most (1+ε)× the true weighted minimum
	//     at its location. Approximation is conservative — the true optimum
	//     is never excluded, extra candidates only cost optimizer time;
	//   - < 0: always exact. RRB queries over weighted types then fail
	//     (curved weighted boundaries have no exact polygonal form).
	// Types with uniform object weights use exact Voronoi diagrams and
	// ignore this knob.
	WeightedEpsilon float64
	// Workers evaluates all three pipeline modules — Voronoi generation, the
	// MOVD overlap (sharded plane sweep plus a balanced reduction of the
	// diagram chain) and the optimizer — with n goroutines. 0 or 1 runs
	// sequentially. The returned optimum can differ from the sequential one
	// only when several combinations of two or more types tie exactly for
	// it: the sharded overlap orders candidate regions differently, so the
	// tie may resolve to another of them at n > 1. Results are deterministic
	// for a given worker count; statistics depend on scheduling.
	Workers int
	// DisableCostBound switches the optimizer to the unpruned sequential
	// batch (the paper's "Original" baseline). Mostly useful for
	// benchmarking.
	DisableCostBound bool
	// PruneOverlap turns on the overlap-time combination filter (the paper's
	// Sec 8 future-work optimisation): object combinations that provably
	// cannot host the optimum are dropped during the Voronoi overlap itself.
	// The result is unchanged; large queries get faster.
	PruneOverlap bool
	// Acceleration is the Weiszfeld over-relaxation factor λ ∈ [1, 1.5]
	// (≈1.3 cuts iterations ~25%; 0 keeps the paper's plain iteration).
	Acceleration float64
	// SpillDir makes the final (largest) diagram overlap stream through a
	// temporary file in this directory and the optimizer stream it back,
	// bounding resident memory for very large queries (the paper's
	// disk-based future work). Empty keeps evaluation fully in memory.
	SpillDir string
	// Trace records a span tree over the solve — one W3C-style trace ID and
	// one timed span per pipeline phase (Voronoi generation, overlap,
	// optimizer). The trace ID is reported on Stats.TraceID; the HTTP server
	// uses the same machinery to retain slow solves in its flight recorder.
	// Off by default: tracing costs a few allocations per phase.
	Trace bool
}

// Query accumulates the object sets 𝔼 = {P_1, …, P_n} of one MOLQ.
type Query struct {
	bounds    Rect
	typeNames []string
	sets      [][]core.Object
	kinds     []query.WeightKind
	opts      Options
}

// NewQuery starts a query over the given search space with default Options.
func NewQuery(bounds Rect) *Query {
	return &Query{bounds: bounds}
}

// NewQueryWith starts a query over the given search space with the given
// evaluation options.
func NewQueryWith(bounds Rect, opts Options) *Query {
	return &Query{bounds: bounds, opts: opts}
}

// Options returns the query's current evaluation options.
func (q *Query) Options() Options { return q.opts }

// SetOptions replaces the query's evaluation options.
func (q *Query) SetOptions(opts Options) { q.opts = opts }

// AddType appends an object set (one POI type) and returns its type index.
// The objects' ID and Type fields are assigned automatically.
func (q *Query) AddType(name string, objects ...Object) int {
	ti := len(q.sets)
	set := make([]core.Object, len(objects))
	for i, o := range objects {
		o.ID = i
		o.Type = ti
		if o.TypeWeight == 0 {
			o.TypeWeight = 1
		}
		if o.ObjWeight == 0 {
			o.ObjWeight = 1
		}
		set[i] = o
	}
	q.typeNames = append(q.typeNames, name)
	q.sets = append(q.sets, set)
	q.kinds = append(q.kinds, query.MultiplicativeObjWeights)
	return ti
}

// SetAdditiveWeights switches a type's object weight function ς^o from the
// multiplicative default (d·w) to the additive form (d + w), the paper's
// additively weighted Voronoi variant. An object weight then acts as a fixed
// access penalty in distance units (e.g. average queueing time) rather than
// a distance multiplier. Panics if typeIndex is out of range.
func (q *Query) SetAdditiveWeights(typeIndex int) *Query {
	q.kinds[typeIndex] = query.AdditiveObjWeights
	return q
}

// TypeNames returns the registered type names in index order.
func (q *Query) TypeNames() []string {
	out := make([]string, len(q.typeNames))
	copy(out, q.typeNames)
	return out
}

// Stats summarises the work one solve performed.
type Stats struct {
	// OVRs is the size of the final MOVD (0 for SSC).
	OVRs int
	// Groups is the number of Fermat-Weber problems examined.
	Groups int
	// Combinations is the number of object combinations enumerated (SSC).
	Combinations int
	// PointsManaged is the boundary-point memory metric of the final MOVD.
	PointsManaged int
	// Iterations is the total count of Weiszfeld iterations.
	Iterations int
	// Pruned is the number of candidate groups eliminated by the cost
	// bound (prefilter plus in-iteration pruning).
	Pruned int
	// TraceID is the solve's 32-hex-digit trace identifier when
	// Options.Trace was set ("" otherwise). Quote it when correlating a
	// library solve with server-side logs or a retained flight-recorder
	// trace.
	TraceID string
}

// Result is the answer to a query.
type Result struct {
	// Location is the optimal location l (Eq 4).
	Location Point
	// Cost is MWGD(Location): the minimal sum of weighted distances.
	Cost float64
	// Method that produced the result.
	Method Method
	// Stats of the evaluation.
	Stats Stats
}

// input assembles the internal pipeline input from the query's current sets
// and options.
func (q *Query) input() query.Input {
	return query.Input{
		Sets:             q.sets,
		Bounds:           q.bounds,
		Epsilon:          q.opts.Epsilon,
		WeightedEpsilon:  q.opts.WeightedEpsilon,
		DisableCostBound: q.opts.DisableCostBound,
		ObjKinds:         q.kinds,
		Workers:          q.opts.Workers,
		PruneOverlap:     q.opts.PruneOverlap,
		Acceleration:     q.opts.Acceleration,
		SpillDir:         q.opts.SpillDir,
		Trace:            q.opts.Trace,
	}
}

func toResult(res query.Result) Result {
	out := Result{
		Location: res.Loc,
		Cost:     res.Cost,
		Method:   res.Method,
		Stats: Stats{
			OVRs:          res.Stats.OVRs,
			Groups:        res.Stats.Groups,
			Combinations:  res.Stats.Combinations,
			PointsManaged: res.Stats.PointsManaged,
			Iterations:    res.Stats.Fermat.TotalIters,
			Pruned:        res.Stats.Fermat.Prefiltered + res.Stats.Fermat.PrunedGroups,
		},
	}
	if res.Stats.Trace != nil {
		out.Stats.TraceID = res.Stats.Trace.TraceID.String()
	}
	return out
}

// Solve evaluates the query with the chosen strategy.
func (q *Query) Solve(m Method) (Result, error) {
	return q.SolveContext(context.Background(), m)
}

// SolveContext is Solve honouring a context: cancelling it stops the
// evaluation — including the optimizer's worker pool when Options.Workers
// is set — and returns the context's error.
func (q *Query) SolveContext(ctx context.Context, m Method) (Result, error) {
	res, err := query.SolveContext(ctx, q.input(), m)
	if err != nil {
		return Result{}, err
	}
	res.Method = m
	return toResult(res), nil
}

// Engine is a prepared query: the overlapped Voronoi diagram is computed
// once and reused across solves with different type-weight vectors, which is
// valid because the MOVD never depends on type weights. Use it to explore
// preference trade-offs ("what if schools matter twice as much?") at
// optimizer-only cost.
type Engine struct {
	eng   *query.Engine
	types int
}

// Prepare builds an Engine from the query's current object sets using the
// RRB or MBRB pipeline. The TypeWeight values on the stored objects become
// irrelevant; every Engine.Solve supplies its own.
func (q *Query) Prepare(m Method) (*Engine, error) {
	in := query.Input{
		Sets:            q.sets,
		Bounds:          q.bounds,
		Epsilon:         q.opts.Epsilon,
		WeightedEpsilon: q.opts.WeightedEpsilon,
		ObjKinds:        q.kinds,
		Workers:         q.opts.Workers,
	}
	eng, err := query.NewEngine(in, m)
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng, types: len(q.sets)}, nil
}

// Solve answers the prepared query for one type-weight vector (one positive
// entry per type, in AddType order). Safe for concurrent use, including
// concurrently with Insert/Delete — each call reads one consistent engine
// version.
func (e *Engine) Solve(typeWeights []float64) (Result, error) {
	return e.SolveContext(context.Background(), typeWeights)
}

// SolveContext is Solve honouring a context: cancelling it stops the
// optimizer (and its worker pool) and returns the context's error.
func (e *Engine) SolveContext(ctx context.Context, typeWeights []float64) (Result, error) {
	res, err := e.eng.QueryContext(ctx, typeWeights)
	if err != nil {
		return Result{}, err
	}
	return toResult(res), nil
}

// SolveBatch answers the prepared query for many type-weight vectors at
// once, returning one Result per vector in order. All vectors share one
// worker pool and the precomputed problem geometry, so a batch is
// substantially cheaper than len(vecs) Solve calls.
func (e *Engine) SolveBatch(vecs [][]float64) ([]Result, error) {
	return e.SolveBatchContext(context.Background(), vecs)
}

// SolveBatchContext is SolveBatch honouring a context (see SolveContext).
func (e *Engine) SolveBatchContext(ctx context.Context, vecs [][]float64) ([]Result, error) {
	batch, err := e.eng.QueryBatchContext(ctx, vecs)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(batch))
	for i, res := range batch {
		out[i] = toResult(res)
	}
	return out, nil
}

// Combinations reports how many candidate object combinations the prepared
// MOVD admits (the number of Fermat-Weber problems per Solve).
func (e *Engine) Combinations() int { return e.eng.Combinations() }

// Version reports the engine's data version: 1 after Prepare, incremented by
// every successful Insert or Delete.
func (e *Engine) Version() int64 { return e.eng.Version() }

// ObjectCounts reports the current number of objects per type, in AddType
// order.
func (e *Engine) ObjectCounts() []int { return e.eng.ObjectCounts() }

// Update describes what one Insert or Delete did.
type Update struct {
	// Version is the engine version the mutation published.
	Version int64
	// Incremental is true when the prepared diagram was repaired by splicing
	// only the dirty region (cells adjacent to the mutated site); false when
	// the mutation fell back to a full pipeline rebuild. Results are
	// identical either way.
	Incremental bool
	// DirtyCells is the number of Voronoi cells the mutation invalidated
	// (incremental repairs only).
	DirtyCells int
	// Duration is the wall-clock cost of the repair.
	Duration time.Duration
}

// Insert adds one object to the prepared engine's type typeIndex and repairs
// the overlapped diagram incrementally — only the Voronoi cells adjacent to
// the new site and the candidate regions intersecting them are recomputed.
// obj.ID must be unused within the type and obj.Loc unoccupied; obj's
// TypeWeight is irrelevant (Solve supplies type weights). In-flight Solve
// calls are unaffected: they keep answering on the version they started
// with, and the new version becomes visible atomically.
func (e *Engine) Insert(typeIndex int, obj Object) (Update, error) {
	obj.Type = typeIndex
	if obj.ObjWeight == 0 {
		obj.ObjWeight = 1
	}
	us, err := e.eng.InsertObject(obj)
	if err != nil {
		return Update{}, err
	}
	return toUpdate(us), nil
}

// Delete removes the object with the given ID from type typeIndex and
// repairs the overlapped diagram incrementally (see Insert). Every type must
// retain at least one object.
func (e *Engine) Delete(typeIndex, id int) (Update, error) {
	us, err := e.eng.DeleteObject(typeIndex, id)
	if err != nil {
		return Update{}, err
	}
	return toUpdate(us), nil
}

func toUpdate(us query.UpdateStats) Update {
	return Update{
		Version:     us.Version,
		Incremental: !us.Rebuilt,
		DirtyCells:  us.DirtyCells,
		Duration:    us.TotalTime,
	}
}

// Alternative is one ranked candidate location from TopK.
type Alternative struct {
	Location Point
	Cost     float64
}

// TopK returns the k best distinct locally optimal locations, ascending by
// cost (the first is the query answer). Useful when a planner wants
// fallback sites, not just the optimum. Requires RRB or MBRB.
func (q *Query) TopK(m Method, k int) ([]Alternative, error) {
	in := query.Input{
		Sets:            q.sets,
		Bounds:          q.bounds,
		Epsilon:         q.opts.Epsilon,
		WeightedEpsilon: q.opts.WeightedEpsilon,
		ObjKinds:        q.kinds,
		Workers:         q.opts.Workers,
	}
	cands, err := query.TopK(in, m, k)
	if err != nil {
		return nil, err
	}
	out := make([]Alternative, len(cands))
	for i, c := range cands {
		out[i] = Alternative{Location: c.Loc, Cost: c.Cost}
	}
	return out, nil
}

// MWGD evaluates the minimum weighted group distance (Eq 3) of the query's
// object sets at an arbitrary location, using each type's object weight
// function: multiplicative by default, additive after SetAdditiveWeights.
// A type with no objects contributes nothing. Useful for verifying results
// or scoring candidate sites.
func (q *Query) MWGD(at Point) float64 {
	in := query.Input{Sets: q.sets, ObjKinds: q.kinds}
	return in.MWGD(at)
}

// VoronoiCells computes the ordinary Voronoi diagram of sites clipped to
// bounds and returns one convex cell per site (nil for duplicate sites).
// This exposes the paper's VD Generator substrate directly.
func VoronoiCells(sites []Point, bounds Rect) ([]Polygon, error) {
	d, err := voronoi.Compute(sites, bounds)
	if err != nil {
		return nil, err
	}
	return d.Cells, nil
}

// FermatWeber returns the point minimising Σ weights[i]·d(q, pts[i]) and its
// cost, solved to relative tolerance eps (≤0 means the 1e-3 default). Exact
// fast paths cover 1, 2 and 3 points and collinear sets.
func FermatWeber(pts []Point, weights []float64, eps float64) (Point, float64, error) {
	if len(weights) != len(pts) {
		weights = nil
	}
	wps := make([]fermat.WeightedPoint, len(pts))
	for i, p := range pts {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		wps[i] = fermat.WeightedPoint{P: p, W: w}
	}
	res, err := fermat.Solve(wps, fermat.Options{Epsilon: eps})
	if err != nil {
		return Point{}, 0, err
	}
	return res.Loc, res.Cost, nil
}

// GeneratePOIs produces n synthetic POI locations of the named type under
// the library's clustered-settlement model (the GeoNames stand-in used by
// the experiment harness). Well-known names: "STM", "CH", "SCH", "PPL",
// "BLDG" — any other string works and gets its own sampling stream.
func GeneratePOIs(typeName string, n int, seed int64, bounds Rect) []Point {
	return dataset.Generate(dataset.Config{Seed: seed, Bounds: bounds}, typeName, n)
}

// DefaultBounds is the synthetic continental search space used by the
// experiment harness.
func DefaultBounds() Rect { return dataset.DefaultBounds }
