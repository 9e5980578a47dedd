// Package mwvd builds error-bounded approximate multiplicatively (and
// additively) weighted Voronoi diagrams by adaptive quadtree refinement, in
// the spirit of the linear-size approximate MWVD construction of
// arXiv:2112.12350.
//
// The exact multiplicatively weighted diagram has curved (Apollonius) cell
// boundaries and Θ(n²) worst-case complexity, which is why the exact
// realization in internal/weighted caps weighted workloads at small n. This
// package trades exactness for near-linear size: the search space is
// subdivided until, within each cell, every surviving candidate site is a
// (1+ε)-approximate weighted nearest neighbor of every point of the cell.
// Cells still ambiguous at the stopping rule are assigned to all surviving
// candidates, so a site's approximate region is always a superset of its
// true dominance region. That conservativeness (false positives only) is
// exactly the contract the MBRB pipeline already tolerates — the per-site
// bounding boxes of the refined cells feed core.FromRegions unchanged — and
// it extends to RRB: EachLeaf hands the refined cells themselves to
// core.FromCellRegions as rectangular regions, so weighted workloads get
// exact-boundary-style region queries too.
//
// Refinement of a cell scans only the candidate list inherited from its
// parent, pruned against an upper bound seeded by a kd-tree nearest-site
// lookup, so the total work is near-linear in n instead of all-pairs. The
// root is pre-split into an adaptive grid of independent subtree tasks —
// sized from GOMAXPROCS and site density, never from Options.Workers, so the
// refined diagram is identical at every worker count — whose candidate lists
// are seeded by one sequential pruning descent from the root (each task
// starts from the sites that can matter in its rect, not all n). Workers
// pull tasks dense-first off a shared counter and flush their per-site box
// accumulators after every task, keeping peak accumulator memory bounded by
// the largest single task instead of the whole sweep.
package mwvd

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"molq/internal/geom"
	"molq/internal/kdtree"
	"molq/internal/obs"
	"molq/internal/weighted"
)

// Site is a weighted Voronoi generator, shared with the exact realization in
// internal/weighted: position plus positive weight (multiplicative w multiplies
// distance and smaller weights dominate larger regions; additive w adds to it).
type Site = weighted.Site

// Metric selects the weighted distance ς(d, w) a diagram approximates.
type Metric int

const (
	// Multiplicative is ς(d, w) = d·w (Apollonius boundaries).
	Multiplicative Metric = iota
	// Additive is ς(d, w) = d + w (hyperbolic boundaries).
	Additive
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Multiplicative:
		return "multiplicative"
	case Additive:
		return "additive"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// DefaultEpsilon is the relative error bound used below the auto-ε crossover
// (see AutoEpsilon). Refinement cost scales as ~1/ε (boundary cells shrink
// until the bound gap closes to the relative factor), so the default trades:
// loose enough that bisector-adjacent refinement stays shallow and a 50k-site
// build beats the exact quadratic path by over an order of magnitude, tight
// enough that the measured candidate-set inflation stays under ~1.4
// assignments per cell.
const DefaultEpsilon = 0.15

// MaxAutoEpsilon caps the automatically loosened ε. Past 0.5 the candidate
// boxes inflate enough that downstream Fermat-Weber work starts to eat the
// prepare-time savings, so auto mode never loosens beyond it; callers who
// want a coarser diagram can still set Options.Epsilon explicitly.
const MaxAutoEpsilon = 0.5

// autoEpsilonBaseSites is the per-processor site count at which auto-ε
// starts loosening: up to 50k sites per core, DefaultEpsilon keeps prepare
// comfortably sub-second (measured on the ext7 sweep), so there is nothing
// to trade away.
const autoEpsilonBaseSites = 50000

// AutoEpsilon returns the ε used when Options.Epsilon is 0: DefaultEpsilon
// up to 50000·GOMAXPROCS sites, then DefaultEpsilon·sqrt(n/(50000·GOMAXPROCS))
// capped at MaxAutoEpsilon. Rationale: refinement work grows like n/ε, and
// the parallel sweep amortizes it over GOMAXPROCS cores, so holding
// prepare time constant past the base would need ε ∝ n. Taking the square
// root instead splits the overbudget evenly between prepare time and box
// tightness — prepare grows as √(n/base) while boxes loosen only as
// √(n/base) — which measured better end to end than holding either fixed
// (DESIGN.md §11).
func AutoEpsilon(n int) float64 {
	base := autoEpsilonBaseSites * runtime.GOMAXPROCS(0)
	if n <= base {
		return DefaultEpsilon
	}
	return math.Min(DefaultEpsilon*math.Sqrt(float64(n)/float64(base)), MaxAutoEpsilon)
}

// DefaultMaxDepth caps refinement below the top-level task grid. 24 halvings
// resolve a cell to ~6e-8 of the search space per axis — far below any
// meaningful site separation — so the cap only stops degenerate ties
// (co-located sites) from recursing forever.
const DefaultMaxDepth = 24

// Options configure a Build.
type Options struct {
	// Epsilon is the relative separation ε at which an ambiguous cell stops
	// refining: once every surviving candidate's weighted distance to every
	// point of the cell is within a (1+ε) factor of the best possible, the
	// cell is emitted with all survivors. 0 means AutoEpsilon(len(sites)).
	// Smaller ε refines further (more cells, tighter regions);
	// conservativeness holds at every ε.
	Epsilon float64
	// MaxDepth caps refinement depth below the top-level grid (0 means
	// DefaultMaxDepth).
	MaxDepth int
	// Workers refines the top-level subtree tasks with up to this many
	// goroutines (0 or 1: sequential). The diagram is identical at every
	// worker count: the task decomposition depends only on GOMAXPROCS and
	// site count, and per-task accumulation is deterministic.
	Workers int
	// Metric selects the weighted distance family (default Multiplicative).
	Metric Metric
	// TaskGridLevel overrides the adaptive pre-split depth of the task grid
	// (clamped to [2, 6]; 0 means automatic — see autoGridLevel). Tests use
	// it to pin the decomposition; production should leave it 0.
	TaskGridLevel int
	// Span, when non-nil, receives three child spans — "weighted-filter",
	// "weighted-refine", "weighted-emit" — whose durations equal
	// Stats.Phases, so slow prepares surface in the flight recorder with a
	// per-phase breakdown. Nil carries no tracing overhead.
	Span *obs.Span
}

// PhaseTimes is the per-phase breakdown of one build, mirrored onto the
// Options.Span children. Filter covers validation, the SoA gather, the kd
// bulk load and the hierarchical candidate seeding descent; Refine is the
// wall clock of the parallel task sweep; Emit is the accumulated per-task
// box-flush time — output materialization streams out of the refine tasks,
// so Emit is a subset of the Refine wall, not a phase after it.
type PhaseTimes struct {
	Filter time.Duration
	Refine time.Duration
	Emit   time.Duration
}

// Stats reports the work and shape of one Build. All fields except Phases
// are deterministic for a given input and process (worker count never
// changes them); tests comparing Stats across builds must zero Phases first.
type Stats struct {
	// Cells is the number of leaf cells in the refined quadtree.
	Cells int
	// Assignments is the total number of site↦cell assignments (≥ Cells;
	// the excess over Cells measures ε-ambiguity).
	Assignments int
	// AmbiguousCells counts leaves holding more than one candidate site.
	AmbiguousCells int
	// MaxDepth is the deepest refinement level reached (task grid roots sit
	// at TaskGridLevel).
	MaxDepth int
	// SitesScanned is the total number of candidate bound evaluations — the
	// metric that stays near-linear in n where the exact path is n² —
	// including the sequential seeding descent.
	SitesScanned int
	// TaskGridLevel is the pre-split depth the build used (4^level tasks).
	TaskGridLevel int
	// AccPeak is the peak number of (site, box) accumulator entries any
	// single task held before flushing — the bound on per-worker emission
	// memory that keeps million-site sweeps flat.
	AccPeak int
	// Phases is the per-phase timing breakdown (not deterministic).
	Phases PhaseTimes
}

// Validation errors.
var (
	ErrNoSites   = errors.New("mwvd: no sites")
	ErrBadWeight = errors.New("mwvd: site weights must be positive and finite")
	ErrBadBounds = errors.New("mwvd: empty bounds")
)

// Task-grid sizing. The pre-split depth is derived from the machine and the
// input — never from Options.Workers — so the decomposition (and with it the
// diagram) is invariant across worker counts.
const (
	// minGridLevel keeps at least 16 tasks so even small builds spread over
	// a few cores and Locate's fixed-descent prefix stays cheap.
	minGridLevel = 2
	// maxGridLevel caps the grid at 4096 tasks; past that per-task overhead
	// (seeding descent, accumulator flush) outweighs balance gains.
	maxGridLevel = 6
	// tasksPerProc targets ~8 tasks per processor: enough surplus for the
	// shared-counter work stealing to absorb skewed task costs.
	tasksPerProc = 8
	// minTaskSites is the density guard: never split so fine that tasks
	// average fewer sites than this, or seeding overhead dominates.
	minTaskSites = 64
)

// autoGridLevel picks the task-grid depth: deepen while the grid has fewer
// than 8 tasks per processor and the next level still averages at least
// minTaskSites sites per task.
func autoGridLevel(nSites int) int {
	procs := runtime.GOMAXPROCS(0)
	lvl := minGridLevel
	for lvl < maxGridLevel &&
		1<<(2*lvl) < tasksPerProc*procs &&
		nSites>>(2*(lvl+1)) >= minTaskSites {
		lvl++
	}
	return lvl
}

// qnode is one quadtree node in structure-of-arrays-friendly compact form.
// Internal nodes hold the index of their first child (the four children are
// consecutive); leaves hold kids == -1 and their assigned-site span in the
// subtree's site slab.
type qnode struct {
	kids     int32
	sitesOff int32
	sitesLen int32
}

// subtree is one refined top-level grid cell: its node arena plus the flat
// slab its leaves' site lists are carved from (the slab-arena idiom of
// internal/core/soa.go — leaves alias spans of one grow-only array instead of
// owning per-leaf allocations).
type subtree struct {
	rect  geom.Rect
	nodes []qnode
	slab  []int32
}

// Diagram is an immutable approximate weighted Voronoi diagram. Build once,
// query concurrently.
type Diagram struct {
	bounds    geom.Rect
	sites     []Site
	metric    Metric
	gridLevel int
	trees     []subtree
	mbrs      []geom.Rect
	stats     Stats
}

// Stats returns build statistics.
func (d *Diagram) Stats() Stats { return d.stats }

// MBRs returns, for every site, the bounding box of the cells assigned to it
// — a conservative superset of the site's true weighted dominance region
// intersected with the bounds (EmptyRect for sites dominated everywhere).
// The slice is shared; callers must not mutate it.
func (d *Diagram) MBRs() []geom.Rect { return d.mbrs }

// Locate returns the candidate site indices of the leaf cell containing q
// (sites whose weighted distance is within (1+ε) of optimal everywhere in
// that cell — always including q's true weighted nearest site), or nil for q
// outside the bounds. The returned slice aliases the diagram; do not mutate.
func (d *Diagram) Locate(q geom.Point) []int32 {
	if !d.bounds.Contains(q) {
		return nil
	}
	// Descend the fixed grid levels with the same midpoint arithmetic
	// refinement used, so boundary points land in the same task either way.
	rect := d.bounds
	ti := 0
	for l := 0; l < d.gridLevel; l++ {
		k, sub := childAt(rect, q)
		ti = ti*4 + k
		rect = sub
	}
	t := &d.trees[ti]
	ni := int32(0)
	for {
		n := &t.nodes[ni]
		if n.kids < 0 {
			return t.slab[n.sitesOff : n.sitesOff+n.sitesLen]
		}
		k, sub := childAt(rect, q)
		ni = n.kids + int32(k)
		rect = sub
	}
}

// EachLeaf visits every leaf cell of a tree-mode diagram (one built with
// Build; ApproxDominanceMBRs materializes no tree) along with the cell's
// surviving candidate sites. Quartets of sibling leaves with identical
// candidate lists are merged bottom-up into their parent before visiting, so
// the rectangular regions handed to the RRB pipeline track region boundaries
// instead of paying one rect per refinement leaf. The sites slice aliases
// the diagram; callers must not mutate it or retain it across calls.
func (d *Diagram) EachLeaf(fn func(rect geom.Rect, sites []int32)) {
	for ti := range d.trees {
		t := &d.trees[ti]
		if len(t.nodes) == 0 {
			continue
		}
		if span, leaf := mergedLeaves(t, 0, t.rect, fn); leaf {
			fn(t.rect, span)
		}
	}
}

// mergedLeaves walks node ni post-order. A leaf reports (sites, true) to its
// parent without emitting; an internal node whose four children are all
// unemitted leaves with identical site lists coalesces into a single bigger
// leaf the same way. Anything else emits its mergeable children and reports
// (nil, false).
func mergedLeaves(t *subtree, ni int32, rect geom.Rect, fn func(geom.Rect, []int32)) ([]int32, bool) {
	n := &t.nodes[ni]
	if n.kids < 0 {
		return t.slab[n.sitesOff : n.sitesOff+n.sitesLen], true
	}
	var spans [4][]int32
	var leaf [4]bool
	for k := 0; k < 4; k++ {
		spans[k], leaf[k] = mergedLeaves(t, n.kids+int32(k), quadrant(rect, k), fn)
	}
	if leaf[0] && leaf[1] && leaf[2] && leaf[3] &&
		int32sEqual(spans[0], spans[1]) && int32sEqual(spans[0], spans[2]) && int32sEqual(spans[0], spans[3]) {
		return spans[0], true
	}
	for k := 0; k < 4; k++ {
		if leaf[k] {
			fn(quadrant(rect, k), spans[k])
		}
	}
	return nil, false
}

// int32sEqual reports element-wise equality. Sibling leaves inherit their
// parent's candidate order, so equal sets always compare equal element-wise.
func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// childAt returns the quadrant index of q within rect and the quadrant's
// rectangle, using the same midpoint arithmetic as refinement (quadrant k:
// bit 0 = east, bit 1 = north; points on a midline go east/north).
func childAt(rect geom.Rect, q geom.Point) (int, geom.Rect) {
	cx := (rect.Min.X + rect.Max.X) / 2
	cy := (rect.Min.Y + rect.Max.Y) / 2
	k := 0
	sub := rect
	if q.X >= cx {
		k |= 1
		sub.Min.X = cx
	} else {
		sub.Max.X = cx
	}
	if q.Y >= cy {
		k |= 2
		sub.Min.Y = cy
	} else {
		sub.Max.Y = cy
	}
	return k, sub
}

// quadrant returns child k of rect (same convention as childAt).
func quadrant(rect geom.Rect, k int) geom.Rect {
	cx := (rect.Min.X + rect.Max.X) / 2
	cy := (rect.Min.Y + rect.Max.Y) / 2
	sub := rect
	if k&1 != 0 {
		sub.Min.X = cx
	} else {
		sub.Max.X = cx
	}
	if k&2 != 0 {
		sub.Min.Y = cy
	} else {
		sub.Max.Y = cy
	}
	return sub
}

// rectInside reports whether inner lies fully within outer.
func rectInside(inner, outer geom.Rect) bool {
	return inner.Min.X >= outer.Min.X && inner.Min.Y >= outer.Min.Y &&
		inner.Max.X <= outer.Max.X && inner.Max.Y <= outer.Max.Y
}

// Build refines the approximate weighted Voronoi diagram of sites over
// bounds, materializing the leaf tree so Locate and EachLeaf work.
func Build(sites []Site, bounds geom.Rect, opts Options) (*Diagram, error) {
	return build(sites, bounds, opts, true)
}

// ApproxDominanceMBRs is the pipeline entry point: it runs the same
// refinement as Build but streams the leaves straight into the per-site
// conservative boxes without materializing the quadtree (the drop-in
// replacement for weighted.DominanceMBRs / AdditiveDominanceMBRs, which only
// needs the boxes). Skipping the tree matters: at pipeline scale the leaf
// arena is tens of millions of nodes, and its allocation — not the bound
// arithmetic — would dominate the build.
func ApproxDominanceMBRs(sites []Site, bounds geom.Rect, opts Options) ([]geom.Rect, Stats, error) {
	d, err := build(sites, bounds, opts, false)
	if err != nil {
		return nil, Stats{}, err
	}
	return d.mbrs, d.stats, nil
}

// cutoffHook, when non-nil, observes every box-coverage cutoff: the cell
// rect, the candidate list the cutoff fired against, and a snapshot of each
// candidate's accumulated box at fire time (parallel to cands). Tests
// install it (with Workers ≤ 1 builds) to prove the cutoff never fires
// before every survivor's box is conservative; production leaves it nil.
var cutoffHook func(rect geom.Rect, cands []int32, boxes []geom.Rect)

func build(sites []Site, bounds geom.Rect, opts Options, emitTree bool) (*Diagram, error) {
	filterStart := time.Now()
	if len(sites) == 0 {
		return nil, ErrNoSites
	}
	if bounds.IsEmpty() {
		return nil, fmt.Errorf("%w: %v", ErrBadBounds, bounds)
	}
	pts := make([]geom.Point, len(sites))
	for i, s := range sites {
		// Non-finite weights (and multiplicative weights whose square
		// overflows) would poison the comparison space with 0·Inf = NaN,
		// silently disabling pruning and the box-coverage cutoff's
		// conservativeness — reject them up front.
		if !weighted.ValidWeight(s.W) {
			return nil, fmt.Errorf("%w (site %d: %g)", ErrBadWeight, i, s.W)
		}
		if opts.Metric != Additive && math.IsInf(s.W*s.W, 1) {
			return nil, fmt.Errorf("%w (site %d: %g overflows the squared comparison space)", ErrBadWeight, i, s.W)
		}
		pts[i] = s.P
	}
	fSpan := opts.Span.Child("weighted-filter")
	eps := opts.Epsilon
	if eps <= 0 {
		eps = AutoEpsilon(len(sites))
	}
	maxDepth := opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	gl := opts.TaskGridLevel
	if gl <= 0 {
		gl = autoGridLevel(len(sites))
	}
	if gl < minGridLevel {
		gl = minGridLevel
	}
	if gl > maxGridLevel {
		gl = maxGridLevel
	}
	d := &Diagram{
		bounds:    bounds,
		sites:     sites,
		metric:    opts.Metric,
		gridLevel: gl,
		trees:     make([]subtree, 1<<(2*gl)),
		mbrs:      make([]geom.Rect, len(sites)),
	}
	for i := range d.mbrs {
		d.mbrs[i] = geom.EmptyRect()
	}
	// Hot-loop site state as flat structure-of-arrays slices (the soa.go
	// idiom): coordinates plus the per-site factor in comparison space —
	// w² for the multiplicative metric, where all bound comparisons happen
	// on squared distances so the refinement scan never takes a square
	// root, and plain w for the additive one, which needs real distances.
	px := make([]float64, len(sites))
	py := make([]float64, len(sites))
	wf := make([]float64, len(sites))
	for i, s := range sites {
		px[i], py[i] = s.P.X, s.P.Y
		if opts.Metric == Additive {
			wf[i] = s.W
		} else {
			wf[i] = s.W * s.W
		}
	}
	// Task rects are generated by the same midpoint splitting Locate
	// replays, so grid boundaries agree bit-for-bit.
	fillTaskRects(d.trees, bounds, gl, 0)
	kd := kdtree.BuildFlat(pts)

	var flushMu sync.Mutex
	newW := func() *refiner {
		w := &refiner{
			d: d, kd: kd, maxDepth: maxDepth, gridLevel: gl, emitTree: emitTree,
			flushMu: &flushMu,
			px:      px, py: py, wf: wf, additive: opts.Metric == Additive,
		}
		if w.additive {
			w.epsCmp = 1 + eps
		} else {
			w.epsCmp = (1 + eps) * (1 + eps)
		}
		w.pos = make([]int32, len(sites))
		for i := range w.pos {
			w.pos[i] = -1
		}
		return w
	}

	// Hierarchical candidate seeding: one sequential pruning descent from
	// the root hands every task the candidates that can matter inside its
	// rect. The pruning rule is the same bound test refine applies, so the
	// surviving sets — and with them the diagram — are bit-identical to
	// seeding every task with all n sites, at a fraction of the scans.
	seeder := newW()
	all := make([]int32, len(sites))
	for i := range all {
		all[i] = int32(i)
	}
	taskCands := make([][]int32, len(d.trees))
	seeder.seedTasks(bounds, gl, 0, all, taskCands)

	// Dense-first task order: starting the biggest candidate sets first
	// keeps the shared-counter work stealing balanced when site density is
	// skewed (the last tasks to start are the cheapest to finish).
	order := make([]int, len(d.trees))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(taskCands[order[a]]) > len(taskCands[order[b]])
	})
	filterDur := time.Since(filterStart)
	fSpan.SetAttr("sites", len(sites))
	fSpan.SetAttr("epsilon", eps)
	fSpan.SetAttr("grid_level", gl)
	fSpan.SetAttr("tasks", len(d.trees))
	fSpan.EndWith(filterDur)

	rSpan := opts.Span.Child("weighted-refine")
	refineStart := time.Now()
	workers := opts.Workers
	if workers > len(d.trees) {
		workers = len(d.trees)
	}
	var ws []*refiner
	if workers <= 1 {
		// Reuse the seeder: its pos index and candidate slab are warm.
		for _, ti := range order {
			seeder.refineTask(&d.trees[ti], taskCands[ti])
		}
		ws = []*refiner{seeder}
	} else {
		var next atomic.Int32
		results := make([]*refiner, workers)
		var wg sync.WaitGroup
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				w := newW()
				results[wi] = w
				for {
					k := int(next.Add(1)) - 1
					if k >= len(order) {
						return
					}
					ti := order[k]
					w.refineTask(&d.trees[ti], taskCands[ti])
				}
			}(wi)
		}
		wg.Wait()
		ws = append(results, seeder)
	}
	refineDur := time.Since(refineStart)
	var emitNS int64
	for _, w := range ws {
		w.merge(d)
		emitNS += w.emitNS
	}
	d.stats.TaskGridLevel = gl
	d.stats.Phases = PhaseTimes{Filter: filterDur, Refine: refineDur, Emit: time.Duration(emitNS)}
	rSpan.SetAttr("cells", d.stats.Cells)
	rSpan.SetAttr("scanned", d.stats.SitesScanned)
	rSpan.EndWith(refineDur)
	eSpan := opts.Span.Child("weighted-emit")
	eSpan.SetAttr("acc_peak", d.stats.AccPeak)
	eSpan.EndWith(d.stats.Phases.Emit)
	return d, nil
}

// fillTaskRects assigns the task-grid rects by the same recursive midpoint
// splitting Locate descends, in base-4 digit order (task index = the
// concatenated quadrant path).
func fillTaskRects(trees []subtree, rect geom.Rect, level, base int) {
	if level == 0 {
		trees[base].rect = rect
		return
	}
	for k := 0; k < 4; k++ {
		fillTaskRects(trees, quadrant(rect, k), level-1, base*4+k)
	}
}

// siteMBR is one worker-local (site, box) accumulation entry.
type siteMBR struct {
	site int32
	mbr  geom.Rect
}

// refiner is the single-goroutine state of one worker: grow-only scratch for
// candidate stacks and bound arrays, the sparse per-site MBR accumulator
// (flushed into the shared diagram after every task, so its footprint is
// bounded by one task, not the sweep), and local stats.
type refiner struct {
	d         *Diagram
	kd        *kdtree.FlatTree
	maxDepth  int
	gridLevel int
	epsCmp    float64 // comparison-space (1+ε): squared for multiplicative
	emitTree  bool
	flushMu   *sync.Mutex

	px, py, wf []float64 // read-only SoA site state, shared across workers
	additive   bool

	cur   *subtree
	cands []int32   // stack-allocated candidate lists (watermark discipline)
	lo    []float64 // per-cell candidate bounds, parallel to the cell's kept span
	hi    []float64

	pos     []int32 // site -> index into touched, -1 when absent
	touched []siteMBR
	emitNS  int64
	stats   Stats
}

// cmpBounds returns the comparison-space cost bounds of site i against cell
// rect: the smallest and largest weighted distance any point of the cell can
// have to the site — squared for the multiplicative metric (ordering and the
// relative-factor stop rule are preserved under squaring, and the scan skips
// the square roots), true cost for the additive one.
func (w *refiner) cmpBounds(rect geom.Rect, i int32) (lo, hi float64) {
	x, y := w.px[i], w.py[i]
	// Signed gaps from the site past the cell's min side (l, b) and max
	// side (r, t). Along x, the nearest point of the cell is max(0, l, r)
	// away and the farthest corner max(-l, -r) = -min(l, r); one comparison
	// picks both. The sign of a zero gap is squared away.
	l, r := rect.Min.X-x, x-rect.Max.X
	nx, fx := r, -l
	if l > r {
		nx, fx = l, -r
	}
	if nx < 0 {
		nx = 0
	}
	b, t := rect.Min.Y-y, y-rect.Max.Y
	ny, fy := t, -b
	if b > t {
		ny, fy = b, -t
	}
	if ny < 0 {
		ny = 0
	}
	lo2 := nx*nx + ny*ny
	hi2 := fx*fx + fy*fy
	if w.additive {
		return math.Sqrt(lo2) + w.wf[i], math.Sqrt(hi2) + w.wf[i]
	}
	return lo2 * w.wf[i], hi2 * w.wf[i]
}

// pruneCell appends to w.cands the members of parent that survive the bound
// test at rect and returns the kept span. The rule is identical to refine's
// one-pass-plus-compaction — kept = {i : lo_i(rect) ≤ min_j hi_j(rect)} —
// which is what makes hierarchical seeding output-preserving: a site dropped
// at an ancestor can never re-enter at a descendant (its lower bound only
// grows as rects shrink while the minimum upper bound only falls).
func (w *refiner) pruneCell(rect geom.Rect, parent []int32) []int32 {
	minUpper := math.Inf(1)
	if len(parent) > 8 {
		c := rect.Center()
		if s, _ := w.kd.Nearest2(c.X, c.Y); s >= 0 {
			_, minUpper = w.cmpBounds(rect, s)
		}
	}
	mark := len(w.cands)
	w.lo = w.lo[:0]
	w.stats.SitesScanned += len(parent)
	for _, i := range parent {
		lo, hi := w.cmpBounds(rect, i)
		if lo > minUpper {
			continue
		}
		w.cands = append(w.cands, i)
		w.lo = append(w.lo, lo)
		if hi < minUpper {
			minUpper = hi
		}
	}
	kept := w.cands[mark:]
	n := 0
	for k, i := range kept {
		if w.lo[k] > minUpper {
			continue
		}
		kept[n] = i
		n++
	}
	w.cands = w.cands[:mark+n]
	return w.cands[mark:]
}

// seedTasks descends the task grid sequentially, pruning the candidate list
// at every node, and records each task's surviving candidates in out.
func (w *refiner) seedTasks(rect geom.Rect, level, base int, parent []int32, out [][]int32) {
	mark := len(w.cands)
	kept := w.pruneCell(rect, parent)
	if level == 0 {
		out[base] = append([]int32(nil), kept...)
	} else {
		for k := 0; k < 4; k++ {
			// kept stays valid even if deeper appends regrow w.cands: the
			// slice header pins the old backing array.
			w.seedTasks(quadrant(rect, k), level-1, base*4+k, kept, out)
		}
	}
	w.cands = w.cands[:mark]
}

// refineTask refines one top-level grid cell from its seeded candidate list,
// then flushes the task's per-site boxes into the shared diagram and resets
// the accumulator — peak accumulator memory is one task's worth, however
// many tasks the sweep has.
func (w *refiner) refineTask(t *subtree, seed []int32) {
	w.cur = t
	if w.emitTree {
		t.nodes = append(t.nodes[:0], qnode{})
	}
	w.refine(0, t.rect, w.gridLevel, seed)
	if len(w.touched) > w.stats.AccPeak {
		w.stats.AccPeak = len(w.touched)
	}
	flushStart := time.Now()
	// Rect.Union is pure min/max — commutative and associative — so folding
	// per task under the mutex yields bit-identical boxes at any task order
	// and worker count.
	w.flushMu.Lock()
	for i := range w.touched {
		e := &w.touched[i]
		w.d.mbrs[e.site] = w.d.mbrs[e.site].Union(e.mbr)
	}
	w.flushMu.Unlock()
	w.emitNS += time.Since(flushStart).Nanoseconds()
	for i := range w.touched {
		w.pos[w.touched[i].site] = -1
	}
	w.touched = w.touched[:0]
}

// refine resolves node ni covering rect at the given depth against the
// parent's candidate list, splitting until a single site dominates, the
// (1+ε) separation holds, or the depth cap is reached.
func (w *refiner) refine(ni int32, rect geom.Rect, depth int, parentCands []int32) {
	// Pre-scan coverage cutoff (MBR-only mode): when every inherited
	// candidate's accumulated box already contains the cell, no survivor
	// subset below it can grow any box — skip the bound scan and the whole
	// descent. Survivors are a subset of parentCands and sub-cell rects are
	// subsets of rect, so the check against the parent list is conservative
	// and the output stays bit-identical to full refinement.
	if !w.emitTree && len(parentCands) > 1 && w.allCovered(rect, parentCands) {
		w.cutoffLeaf(rect, depth, parentCands)
		return
	}
	// Seed the pruning bound from the (unweighted) nearest site to the cell
	// center: any single site's upper bound validly prunes candidates whose
	// lower bound exceeds it, and the flat kd-tree finds a good one in
	// O(log n) — in squared distance, matching the comparison space —
	// instead of waiting for the scan to stumble on it.
	minUpper := math.Inf(1)
	if len(parentCands) > 8 {
		c := rect.Center()
		if s, _ := w.kd.Nearest2(c.X, c.Y); s >= 0 {
			_, minUpper = w.cmpBounds(rect, s)
		}
	}
	// One pass: keep candidates whose lower bound does not exceed the
	// running upper bound. The running bound only decreases, so a drop
	// against it is also a drop against the final bound; keeping too much is
	// corrected by the compaction below.
	mark := len(w.cands)
	w.lo = w.lo[:0]
	w.hi = w.hi[:0]
	w.stats.SitesScanned += len(parentCands)
	for _, i := range parentCands {
		lo, hi := w.cmpBounds(rect, i)
		if lo > minUpper {
			continue
		}
		w.cands = append(w.cands, i)
		w.lo = append(w.lo, lo)
		w.hi = append(w.hi, hi)
		if hi < minUpper {
			minUpper = hi
		}
	}
	// Compact against the final bound; track the survivors' extremes.
	kept := w.cands[mark:]
	n := 0
	minLo, maxHi := math.Inf(1), 0.0
	for k, i := range kept {
		if w.lo[k] > minUpper {
			continue
		}
		kept[n] = i
		if w.lo[k] < minLo {
			minLo = w.lo[k]
		}
		if w.hi[k] > maxHi {
			maxHi = w.hi[k]
		}
		n++
	}
	kept = kept[:n]
	w.cands = w.cands[:mark+n]

	// Box-coverage cutoff (MBR-only mode): when the cell already lies inside
	// every survivor's accumulated box, no leaf below this node can grow any
	// box — subcell assignments are subsets of the survivors and their area
	// subsets of rect — so the whole subtree is contribution-free and the
	// output is bit-identical to full refinement. This is what makes the
	// pipeline path scale: only cells near a region's bounding-box edge
	// refine deeply, interior boundary detail is skipped. The per-task
	// accumulator is deterministic, so the cutoff preserves worker-count
	// invariance. Build keeps full refinement: Locate's (1+ε) guarantee
	// needs the real leaves.
	if !w.emitTree && n > 1 && w.allCovered(rect, kept) {
		w.cutoffLeaf(rect, depth, kept)
		w.cands = w.cands[:mark]
		return
	}

	// Leaf when resolved (one candidate), ε-separated (every survivor is a
	// (1+ε)-approximate weighted nearest neighbor everywhere in the cell:
	// cost_j(x) ≤ maxHi ≤ (1+ε)·minLo ≤ (1+ε)·min_i cost_i(x)), or capped.
	if n <= 1 || maxHi <= w.epsCmp*minLo || depth >= w.maxDepth {
		if w.emitTree {
			t := w.cur
			off := int32(len(t.slab))
			t.slab = append(t.slab, kept...)
			t.nodes[ni] = qnode{kids: -1, sitesOff: off, sitesLen: int32(n)}
		}
		w.stats.Cells++
		w.stats.Assignments += n
		if n > 1 {
			w.stats.AmbiguousCells++
		}
		if depth > w.stats.MaxDepth {
			w.stats.MaxDepth = depth
		}
		for _, i := range kept {
			if p := w.pos[i]; p >= 0 {
				w.touched[p].mbr = w.touched[p].mbr.Union(rect)
			} else {
				w.pos[i] = int32(len(w.touched))
				w.touched = append(w.touched, siteMBR{site: i, mbr: rect})
			}
		}
		w.cands = w.cands[:mark]
		return
	}

	var kids int32
	if w.emitTree {
		t := w.cur
		kids = int32(len(t.nodes))
		t.nodes = append(t.nodes, qnode{}, qnode{}, qnode{}, qnode{})
		t.nodes[ni].kids = kids
	}
	for k := 0; k < 4; k++ {
		// kept stays valid even if deeper appends regrow w.cands: the slice
		// header pins the old backing array.
		w.refine(kids+int32(k), quadrant(rect, k), depth+1, kept)
	}
	w.cands = w.cands[:mark]
}

// allCovered reports whether every candidate's accumulated box contains rect.
func (w *refiner) allCovered(rect geom.Rect, cands []int32) bool {
	for _, i := range cands {
		p := w.pos[i]
		if p < 0 || !rectInside(rect, w.touched[p].mbr) {
			return false
		}
	}
	return true
}

// cutoffLeaf books the stats of a coverage-cutoff subtree (counted as one
// ambiguous leaf holding the candidate set) and feeds the test hook.
func (w *refiner) cutoffLeaf(rect geom.Rect, depth int, cands []int32) {
	w.stats.Cells++
	w.stats.Assignments += len(cands)
	if len(cands) > 1 {
		w.stats.AmbiguousCells++
	}
	if depth > w.stats.MaxDepth {
		w.stats.MaxDepth = depth
	}
	if cutoffHook != nil {
		boxes := make([]geom.Rect, len(cands))
		for k, i := range cands {
			boxes[k] = w.touched[w.pos[i]].mbr
		}
		cutoffHook(rect, cands, boxes)
	}
}

// merge folds the worker's stats into the diagram (single-goroutine, after
// all refinement is done; boxes were already flushed per task).
func (w *refiner) merge(d *Diagram) {
	d.stats.Cells += w.stats.Cells
	d.stats.Assignments += w.stats.Assignments
	d.stats.AmbiguousCells += w.stats.AmbiguousCells
	d.stats.SitesScanned += w.stats.SitesScanned
	if w.stats.MaxDepth > d.stats.MaxDepth {
		d.stats.MaxDepth = w.stats.MaxDepth
	}
	if w.stats.AccPeak > d.stats.AccPeak {
		d.stats.AccPeak = w.stats.AccPeak
	}
}
