package fermat

import (
	"context"
	"errors"
	"math"

	"molq/internal/geom"
)

// This file is the structure-of-arrays face of the batch optimizer. The
// Algorithm-5 scan spends most of its time on groups it never iterates: the
// two-point prefilter reads two weights and a precomputed distance, decides,
// and moves on. Feeding that scan []Group — a slice of slices of 24-byte
// structs — costs a pointer chase and most of a cache line per group. The
// flat layout splits the batch into what is shared across weight vectors
// (FlatGroups: coordinates, group boundaries, pair distances — built once per
// engine snapshot) and what one vector owns (FlatProblem: folded weights and
// offsets, written into a caller-provided slab), so the scan and the 1/2-point
// fast paths read contiguous float64 arrays end to end. Groups that actually
// need a solver (≥ 3 points, not prefiltered) are gathered into a per-worker
// []WeightedPoint scratch and handed to the iterative and exact solvers. The
// Streamer evaluates each offered group as a one-group FlatProblem through
// the same solveGroup, so the in-order and batch optimizers cannot drift.

// FlatGroups is the weight-independent geometry of a batch of Fermat-Weber
// problems in structure-of-arrays form: point i of group g lives at
// (X[k], Y[k]) for k in [Starts[g], Starts[g+1]). PairDist[g] caches
// d(p_0, p_1) of each group with ≥ 2 points (entries for shorter groups are
// ignored; a nil slice means distances are computed on demand). One
// FlatGroups is immutable after construction and shared by every weight
// vector and every worker.
type FlatGroups struct {
	X, Y     []float64
	Starts   []int32
	PairDist []float64
}

// Len returns the number of groups.
func (f *FlatGroups) Len() int {
	if len(f.Starts) == 0 {
		return 0
	}
	return len(f.Starts) - 1
}

// pair returns d(p_0, p_1) of group gi starting at flat index s, preferring
// the precomputed distance.
func (f *FlatGroups) pair(gi, s int) float64 {
	if f.PairDist != nil {
		return f.PairDist[gi]
	}
	return geom.Pt(f.X[s], f.Y[s]).Dist(geom.Pt(f.X[s+1], f.Y[s+1]))
}

// FlatProblem is one weight vector's batch over a shared FlatGroups: W[k] is
// the folded weight of flat point k (parallel to Geom.X/Y) and Offsets[g] is
// the constant cost offset of group g (nil means all zeros). Offsets must be
// non-negative: they shift the comparison against the global bound. Additively
// weighted MOLQ optimizers produce exactly this shape — with the additive
// object weight function, WD = w^t·d + w^t·w^o and the second term is
// constant per combination. The caller owns W and Offsets — the query layer
// carves them out of a per-query arena — and must keep them alive and
// unchanged for the duration of the solve.
type FlatProblem struct {
	Geom    *FlatGroups
	W       []float64
	Offsets []float64
}

// ErrBadFlat reports a structurally inconsistent flat problem.
var ErrBadFlat = errors.New("fermat: malformed flat problem")

func (p *FlatProblem) validate() error {
	f := p.Geom
	if f == nil || f.Len() == 0 {
		return ErrNoPoints
	}
	n := len(f.X)
	if len(f.Y) != n || len(p.W) != n {
		return ErrBadFlat
	}
	if int(f.Starts[0]) != 0 || int(f.Starts[f.Len()]) != n {
		return ErrBadFlat
	}
	if p.Offsets != nil && len(p.Offsets) != f.Len() {
		return ErrBadOffsets
	}
	if f.PairDist != nil && len(f.PairDist) != f.Len() {
		return ErrBadPairDist
	}
	return nil
}

// off returns group gi's constant cost offset.
func (p *FlatProblem) off(gi int) float64 {
	if p.Offsets == nil {
		return 0
	}
	return p.Offsets[gi]
}

// gather materialises group [s, t) into the caller's scratch slice, growing
// it as needed, so the iterative solvers see the layout they were written
// for. The scratch is per-worker state; the returned slice aliases it.
func (p *FlatProblem) gather(scratch *[]WeightedPoint, s, t int) Group {
	n := t - s
	g := *scratch
	if cap(g) < n {
		g = make([]WeightedPoint, n)
		*scratch = g
	}
	g = g[:n]
	f := p.Geom
	for i := 0; i < n; i++ {
		g[i] = WeightedPoint{P: geom.Pt(f.X[s+i], f.Y[s+i]), W: p.W[s+i]}
	}
	return Group(g)
}

// solveGroup is Algorithm 5's per-group step, the only one in the package:
// it evaluates group gi, accumulating work counters into st. Empty groups
// are skipped, 1- and 2-point groups are answered straight off the flat
// arrays (no gather, no sqrt when PairDist is cached), and the two-point
// prefilter for larger groups, which reads the bound pre, costs two flat
// loads and a multiply; only groups that survive it are gathered into
// scratch for the exact solvers or for Weiszfeld, which iter aborts. The
// batch drivers pass their one shared cost bound as both; the Streamer's
// ablation variants pass a bound that stays +Inf for a mechanism that is
// off. ok=false means the group was skipped, prefiltered or pruned (res is
// then meaningless).
func (p *FlatProblem) solveGroup(gi int, opt Options, pre, iter *atomicMin, st *BatchStats, scratch *[]WeightedPoint) (res Result, ok bool, err error) {
	f := p.Geom
	s, t := int(f.Starts[gi]), int(f.Starts[gi+1])
	if t == s {
		return res, false, nil
	}
	st.Problems++
	switch t - s {
	case 1:
		st.ExactSolves++
		return Result{Loc: geom.Pt(f.X[s], f.Y[s]), Exact: true}, true, nil
	case 2:
		// The optimum sits at the heavier point and pays the lighter weight
		// over the pair distance (see solve2) — four flat loads, no gather.
		st.ExactSolves++
		d := f.pair(gi, s)
		w0, w1 := p.W[s], p.W[s+1]
		if w1 > w0 {
			return Result{Loc: geom.Pt(f.X[s+1], f.Y[s+1]), Cost: w0 * d, Exact: true}, true, nil
		}
		return Result{Loc: geom.Pt(f.X[s], f.Y[s]), Cost: w1 * d, Exact: true}, true, nil
	}
	// Two-point prefilter (Alg 5 lines 9-12), valid for every group of ≥ 3
	// positive-weight points, including the ones the exact fast paths below
	// handle. min(w0,w1)·d equals solve2(g[:2]).Cost exactly — same Dist,
	// same multiply.
	off := p.off(gi)
	if cb := pre.load(); !math.IsInf(cb, 1) {
		two := min(p.W[s], p.W[s+1]) * f.pair(gi, s)
		if two+off > cb {
			st.Prefiltered++
			return res, false, nil
		}
	}
	g := p.gather(scratch, s, t)
	if len(g) == 3 || isCollinear(g) {
		res, err = Solve(g, opt)
		if err != nil {
			return res, false, err
		}
		st.ExactSolves++
		return res, true, nil
	}
	res = weiszfeldDynamic(g, opt, func() float64 { return iter.load() - off })
	st.TotalIters += res.Iters
	if res.Pruned {
		st.PrunedGroups++
		return res, false, nil
	}
	return res, true, nil
}

// scanOrdered is one problem's sequential Algorithm-5 scan, evaluating group
// `first` before the rest (the warm-start order of the sequential
// multi-batch). Ties go to the lower group index even when `first` was
// evaluated earlier, so among the groups that reach the comparison the
// winner is the one an in-order scan picks.
func (p *FlatProblem) scanOrdered(ctx context.Context, opt Options, first int, scratch *[]WeightedPoint) (BatchResult, error) {
	done := ctx.Done()
	bound := newAtomicMin()
	best := BatchResult{GroupIndex: -1}
	offerAt := func(gi int) error {
		res, ok, err := p.solveGroup(gi, opt, bound, bound, &best.Stats, scratch)
		if err != nil || !ok {
			return err
		}
		total := res.Cost + p.off(gi)
		bound.update(total)
		best.offer(total, res.Loc, gi)
		return nil
	}
	n := p.Geom.Len()
	if first < 0 || first >= n {
		first = 0
	}
	if err := offerAt(first); err != nil {
		return best, err
	}
	for gi := 0; gi < n; gi++ {
		if gi == first {
			continue
		}
		if done != nil && gi%ctxCheckStride == 0 && canceled(done) {
			return best, ctx.Err()
		}
		if err := offerAt(gi); err != nil {
			return best, err
		}
	}
	if best.GroupIndex < 0 {
		return best, ErrNoPoints
	}
	return best, nil
}
