package fermat

import "math"

// Group is one Fermat-Weber problem offered to a Streamer (the point set
// associated with one OVR in the MOLQ optimizer).
type Group []WeightedPoint

// Streamer evaluates Algorithm 5 incrementally: groups are offered one at a
// time, in index order, and the global cost bound is maintained across
// offers. It backs the disk-based pipeline, which streams OVR combinations
// from a spill file without materialising them, the "Original" baseline of
// Fig 10 (no pruning) and the mechanism ablation. Each offer is evaluated as
// a one-group FlatProblem through rejects and solveGroup, the batch drivers'
// per-group step, in the form for points that carry their own weights: Typ
// all 0, Scale = {1}, the offer's weights as Base and its offset on the
// first point's OffBase. Because groups arrive in index order and only a
// strictly cheaper group replaces the incumbent, the lowest-index group wins
// among exact-cost ties — the same rule as CostBoundMultiBatchFlatCtx.
type Streamer struct {
	opt Options
	// p is the one-group problem each Offer rewrites in place.
	p FlatProblem
	// bound is the incumbent's total cost. pre and iter are the bounds the
	// prefilter (rejects) and solveGroup's Weiszfeld abort read: bound when the
	// mechanism is on, a bound that is never updated (+Inf) when it is off.
	bound, pre, iter *atomicMin
	best             BatchResult
	count            int
	scratch          []WeightedPoint
}

// NewStreamer returns a streaming solver. useBound selects Algorithm 5
// pruning (true) or the "Original" exhaustive behaviour (false).
func NewStreamer(opt Options, useBound bool) *Streamer {
	return NewStreamerVariant(opt, useBound, useBound)
}

// NewStreamerVariant enables Algorithm 5's two pruning mechanisms
// independently — the pair prefilter and the in-iteration lower-bound
// abort — so the ablation experiment can attribute the speedup.
func NewStreamerVariant(opt Options, prefilter, iterBound bool) *Streamer {
	s := &Streamer{
		opt:   opt.norm(),
		p:     FlatProblem{Geom: &FlatGroups{Starts: []int32{0, 0}}, Scale: []float64{1}},
		bound: newAtomicMin(),
		best:  BatchResult{Cost: math.Inf(1), GroupIndex: -1},
	}
	never := newAtomicMin()
	s.pre, s.iter = never, never
	if prefilter {
		s.pre = s.bound
	}
	if iterBound {
		s.iter = s.bound
	}
	return s
}

// Offer processes one Fermat-Weber problem with constant cost offset off.
// Empty groups are ignored.
func (s *Streamer) Offer(g Group, off float64) error {
	gi := s.count
	s.count++
	f := s.p.Geom
	f.X, f.Y, f.Typ, f.Base, f.OffBase = f.X[:0], f.Y[:0], f.Typ[:0], f.Base[:0], f.OffBase[:0]
	for _, wp := range g {
		f.X = append(f.X, wp.P.X)
		f.Y = append(f.Y, wp.P.Y)
		f.Typ = append(f.Typ, 0)
		f.Base = append(f.Base, wp.W)
		f.OffBase = append(f.OffBase, 0)
	}
	if len(g) > 0 {
		f.OffBase[0] = off
	}
	f.Starts[1] = int32(len(g))
	if s.p.rejects(0, s.pre.load()) {
		s.best.Stats.prefiltered(1)
		return nil
	}
	res, ok, err := s.p.solveGroup(0, s.opt, s.iter, &s.best.Stats, &s.scratch)
	if err != nil || !ok {
		return err
	}
	total := res.Cost + off
	s.bound.update(total)
	s.best.offer(total, res.Loc, gi)
	return nil
}

// Result finalises the stream. It returns ErrNoPoints when no non-empty
// group was offered.
func (s *Streamer) Result() (BatchResult, error) {
	if s.best.GroupIndex < 0 {
		return s.best, ErrNoPoints
	}
	return s.best, nil
}
