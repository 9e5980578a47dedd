package fermat

import (
	"context"
	"errors"
	"math"

	"molq/internal/geom"
)

// This file is the structure-of-arrays face of the batch optimizer. The
// Algorithm-5 scan spends most of its time on groups it never iterates: the
// pair prefilter reads two weights and a precomputed distance, decides, and
// moves on (a group that survives that pair pays for two more distances).
// Feeding that scan []Group — a slice of slices of 24-byte structs — costs
// a pointer chase and most of a cache line per group. The
// flat layout splits the batch into what is shared across weight vectors
// (FlatGroups: coordinates, group boundaries, pair distances and each
// point's weight-independent weight factors — built once per engine
// snapshot) and what one vector owns (FlatProblem: one scale per type), so
// the scan and the 1/2-point fast paths read contiguous arrays end to end
// and fold a point's weight only when they read it. A query that visits a
// few dozen groups therefore pays for a few dozen folds, not one per point.
// Groups that actually need a solver (≥ 3 points, not prefiltered) are
// gathered into a per-worker []WeightedPoint scratch and handed to the
// iterative and exact solvers. An engine snapshot's FlatGroups also carries
// a scan order by a weight-independent key, which lets a query stop after
// the few groups that can still win. The Streamer evaluates each offered
// group as a one-group FlatProblem through the same rejects and solveGroup,
// so the in-order and batch optimizers cannot drift.

// FlatGroups is the weight-independent half of a batch of Fermat-Weber
// problems in structure-of-arrays form: point i of group g lives at
// (X[k], Y[k]) for k in [Starts[g], Starts[g+1]). PairDist[g] caches
// d(p_0, p_1) of each group with ≥ 2 points (entries for shorter groups are
// ignored; a nil slice means distances are computed on demand). Order, when
// non-nil, is BoundOrder's permutation of the group indices: the scan visits
// groups in that order and stops early once no later group can pass the
// prefilter (see FlatProblem.MinW); nil scans in index order.
//
// Typ, Base and OffBase are each point's weight factors, which a
// FlatProblem's per-type Scale completes: point k weighs
// Scale[Typ[k]]·Base[k], and a group's constant cost offset is the sum of
// Scale[Typ[k]]·OffBase[k] over its points, in point order. OffBase nil
// means every offset is zero. Every factor must be positive and finite
// (OffBase entries non-negative), so offsets are non-negative: they shift
// the comparison against the global bound. Additively weighted MOLQ
// optimizers produce exactly this shape — with the additive object weight
// function, WD = w^t·d + w^t·w^o and the second term is constant per
// combination. One FlatGroups is immutable after construction and shared
// by every weight vector and every worker.
type FlatGroups struct {
	X, Y     []float64
	Starts   []int32
	PairDist []float64
	Order    []int32
	Typ      []int32
	Base     []float64
	OffBase  []float64
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
	return f.dist(s, s+1)
}

// dist returns the distance between flat points i and j.
func (f *FlatGroups) dist(i, j int) float64 {
	return geom.Pt(f.X[i], f.Y[i]).Dist(geom.Pt(f.X[j], f.Y[j]))
}

// scanKey is group gi's weight-independent scan key: the distance of the
// farthest pair among its first three points (d(p_0, p_1) for a two-point
// group, 0 for shorter ones), cut to the top keyBits bits of its float64
// encoding (sign, exponent and 10 mantissa bits). The pair is picked by
// squared distance, so a key costs at most one Hypot; any pair's distance
// would keep the stop sound. The cut rounds a non-negative float toward
// zero, so keyFloor of the key never exceeds the pair distance the
// prefilter multiplies.
func (f *FlatGroups) scanKey(gi int) uint32 {
	s, t := int(f.Starts[gi]), int(f.Starts[gi+1])
	var d float64
	switch {
	case t-s < 2:
	case t-s == 2:
		d = f.pair(gi, s)
	default:
		sq01, sq02, sq12 := f.sq(s, s+1), f.sq(s, s+2), f.sq(s+1, s+2)
		switch {
		case sq01 >= sq02 && sq01 >= sq12:
			d = f.pair(gi, s)
		case sq02 >= sq12:
			d = f.dist(s, s+2)
		default:
			d = f.dist(s+1, s+2)
		}
	}
	return uint32(math.Float64bits(d) >> (64 - keyBits))
}

// keyBits is the width of a scan key: two 11-bit radix passes sort it, and
// its 10 mantissa bits place the stop within 0.1% of the exact key.
const keyBits = 22

// sq returns the squared distance between flat points i and j.
func (f *FlatGroups) sq(i, j int) float64 {
	dx, dy := f.X[i]-f.X[j], f.Y[i]-f.Y[j]
	return dx*dx + dy*dy
}

// keyFloor is the float64 a scan key stands for.
func keyFloor(k uint32) float64 { return math.Float64frombits(uint64(k) << (64 - keyBits)) }

// BoundOrder returns the group indices sorted by scanKey, ties by index:
// the order in which a bound-ordered scan can reject groups earliest. It
// reads PairDist, so set that first. Every engine snapshot pays for it, so
// the sort is a stable two-pass LSD radix sort, linear in the group count,
// with both digit histograms taken in one pass over the keys.
func (f *FlatGroups) BoundOrder() []int32 {
	const digit = keyBits / 2
	const mask = 1<<digit - 1
	n := f.Len()
	keys := make([]uint32, n)
	var lo, hi [mask + 2]int32
	for gi := range keys {
		k := f.scanKey(gi)
		keys[gi] = k
		lo[k&mask+1]++
		hi[k>>digit+1]++
	}
	for d := 1; d < len(lo); d++ {
		lo[d] += lo[d-1]
		hi[d] += hi[d-1]
	}
	tmp := make([]int32, n)
	for gi, k := range keys {
		d := k & mask
		tmp[lo[d]] = int32(gi)
		lo[d]++
	}
	order := make([]int32, n)
	for _, gi := range tmp {
		d := keys[gi] >> digit
		order[hi[d]] = gi
		hi[d]++
	}
	return order
}

// FlatProblem is one weight vector's batch over a shared FlatGroups: Scale
// holds one factor per point type, which the scan multiplies into a point's
// Base (and OffBase) when it reads the point, so setting up a problem costs
// O(types) however many points the geometry holds. A caller whose points
// carry their own weights passes them folded as Base and OffBase, with Typ
// all 0 and Scale = {1}: multiplying by 1 and adding 0 are exact, so that
// form reads back the caller's weights and offsets bit for bit. MinW is a
// lower bound on every point's weight; with Geom.Order set and MinW > 0 the
// scan stops at the first group whose MinW·keyFloor(scanKey) exceeds the
// cost bound, since the prefilter then rejects it and every later group.
// MinW = 0 disables the stop. Every Typ entry must index Scale; validate
// checks lengths only, so as to stay O(1), and leaves the index to Go's
// bounds check. The caller must keep Scale alive and unchanged for the
// duration of the solve.
type FlatProblem struct {
	Geom  *FlatGroups
	Scale []float64
	MinW  float64
}

// ErrBadFlat reports a structurally inconsistent flat problem.
var ErrBadFlat = errors.New("fermat: malformed flat problem")

// validate checks the problem's shape in O(1): array lengths against the
// point and group counts, never the entries.
func (p *FlatProblem) validate() error {
	f := p.Geom
	if f == nil || f.Len() == 0 {
		return ErrNoPoints
	}
	n := len(f.X)
	if len(f.Y) != n || len(f.Typ) != n || len(f.Base) != n || len(p.Scale) == 0 {
		return ErrBadFlat
	}
	if int(f.Starts[0]) != 0 || int(f.Starts[f.Len()]) != n {
		return ErrBadFlat
	}
	if f.OffBase != nil && len(f.OffBase) != n {
		return ErrBadOffsets
	}
	if f.PairDist != nil && len(f.PairDist) != f.Len() {
		return ErrBadPairDist
	}
	if f.Order != nil && len(f.Order) != f.Len() || !(p.MinW >= 0) {
		return ErrBadFlat
	}
	return nil
}

// w returns the weight of flat point k.
func (p *FlatProblem) w(k int) float64 {
	return p.Scale[p.Geom.Typ[k]] * p.Geom.Base[k]
}

// off returns group gi's constant cost offset, summed over its points in
// point order.
func (p *FlatProblem) off(gi int) float64 {
	f := p.Geom
	if f.OffBase == nil {
		return 0
	}
	off := 0.0
	for k := f.Starts[gi]; k < f.Starts[gi+1]; k++ {
		off += p.Scale[f.Typ[k]] * f.OffBase[k]
	}
	return off
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
		g[i] = WeightedPoint{P: geom.Pt(f.X[s+i], f.Y[s+i]), W: p.w(s + i)}
	}
	return Group(g)
}

// rejects is Algorithm 5's prefilter (lines 9–12), which every driver
// runs before solveGroup: it reports whether group gi of ≥ 3 points cannot
// beat the bound cb. 1- and 2-point groups are never rejected: solveGroup
// answers them in closed form. Kept out of solveGroup and small enough to
// inline, the test costs a group a size check, and a rejected one a call
// to pairsExceed, rather than solveGroup's options, result and error
// traffic.
func (p *FlatProblem) rejects(gi int, cb float64) bool {
	return p.Geom.Starts[gi+1] >= p.Geom.Starts[gi]+3 && p.pairsExceed(gi, cb)
}

// pairsExceed is rejects' test for group gi of ≥ 3 points. For any pair
// (i, j) of the group,
// Σ w_k·d(x, p_k) ≥ min(w_i, w_j)·(d(x, p_i) + d(x, p_j)) ≥ min(w_i, w_j)·d_ij,
// so each pair of the first three points gives a valid lower bound on the
// group's cost. The cached pair (p_0, p_1) is tested first and the other two
// distances are computed only for groups that survive it. An infinite bound
// rejects nothing.
func (p *FlatProblem) pairsExceed(gi int, cb float64) bool {
	if math.IsInf(cb, 1) {
		return false
	}
	f, off := p.Geom, p.off(gi)
	s := int(f.Starts[gi])
	w0, w1, w2 := p.w(s), p.w(s+1), p.w(s+2)
	return min(w0, w1)*f.pair(gi, s)+off > cb ||
		min(w0, w2)*f.dist(s, s+2)+off > cb ||
		min(w1, w2)*f.dist(s+1, s+2)+off > cb
}

// at returns the group a scan visits at rank r.
func (f *FlatGroups) at(r int) int {
	if f.Order == nil {
		return r
	}
	return int(f.Order[r])
}

// stops reports whether a bound-ordered scan may stop at group gi: every
// pair term of rejects is at least MinW·keyFloor(scanKey), rounding is
// monotone and offsets are non-negative, so once that product exceeds cb
// the prefilter rejects gi, a two-point group costs more than cb, and both
// hold for every group later in Order, whose keys are no smaller. An
// index-order scan or MinW = 0 never stops.
func (p *FlatProblem) stops(gi int, cb float64) bool {
	return p.Geom.Order != nil && p.MinW > 0 && p.MinW*keyFloor(p.Geom.scanKey(gi)) > cb
}

// solveGroup is Algorithm 5's per-group step, the only one in the package:
// it evaluates group gi, which rejects has let through, accumulating work
// counters into st. Empty groups are skipped, 1- and 2-point groups are
// answered straight off the flat arrays (no gather, no sqrt when PairDist
// is cached), and larger groups are gathered into scratch for the exact
// solvers or for Weiszfeld, which iter aborts once the group's lower bound
// plus its offset strictly exceeds the bound. Comparing totals, strictly,
// lets a group that would tie the incumbent reach the tie rule whichever
// of the two was visited first. The batch drivers pass their one shared
// cost bound; the Streamer's ablation variants pass a bound that stays +Inf
// when the abort is off. ok=false means the group was skipped or pruned
// (res is then meaningless).
func (p *FlatProblem) solveGroup(gi int, opt Options, iter *atomicMin, st *BatchStats, scratch *[]WeightedPoint) (res Result, ok bool, err error) {
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
		w0, w1 := p.w(s), p.w(s+1)
		if w1 > w0 {
			return Result{Loc: geom.Pt(f.X[s+1], f.Y[s+1]), Cost: w0 * d, Exact: true}, true, nil
		}
		return Result{Loc: geom.Pt(f.X[s], f.Y[s]), Cost: w1 * d, Exact: true}, true, nil
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
	off := p.off(gi)
	res = weiszfeldDynamic(g, opt, func(lb float64) bool { return lb+off > iter.load() })
	st.TotalIters += res.Iters
	if res.Pruned {
		st.PrunedGroups++
		return res, false, nil
	}
	return res, true, nil
}

// scanOrdered is one problem's sequential Algorithm-5 scan, evaluating group
// `first` before the rest (the warm-start order of the sequential
// multi-batch), then the others in Geom.Order (index order when nil),
// stopping where stops allows. Ties go to the lower group index whatever
// the visiting order, so among the groups that reach the comparison the
// winner is the one an in-order scan picks.
func (p *FlatProblem) scanOrdered(ctx context.Context, opt Options, first int, scratch *[]WeightedPoint) (BatchResult, error) {
	done := ctx.Done()
	bound := newAtomicMin()
	best := BatchResult{GroupIndex: -1}
	st := &best.Stats
	offerAt := func(gi int) error {
		if p.rejects(gi, bound.load()) {
			st.prefiltered(1)
			return nil
		}
		res, ok, err := p.solveGroup(gi, opt, bound, st, scratch)
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
	seenFirst := false
	for r := 0; r < n; r++ {
		gi := p.Geom.at(r)
		if gi == first {
			seenFirst = true
			continue
		}
		if done != nil && r%ctxCheckStride == 0 && canceled(done) {
			return best, ctx.Err()
		}
		if p.stops(gi, bound.load()) {
			// Ranks r..n-1 are skipped, bar `first` if it lies among them.
			rest := n - r
			if !seenFirst {
				rest--
			}
			st.prefiltered(rest)
			break
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
