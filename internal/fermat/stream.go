package fermat

import "math"

// Group is one Fermat-Weber problem offered to a Streamer (the point set
// associated with one OVR in the MOLQ optimizer).
type Group []WeightedPoint

// Streamer evaluates Algorithm 5 incrementally: groups are offered one at a
// time, in index order, and the global cost bound is maintained across
// offers. It backs the disk-based pipeline, which streams OVR combinations
// from a spill file without materialising them, the "Original" baseline of
// Fig 10 (no pruning) and the mechanism ablation. Because groups arrive in
// index order and only a strictly cheaper group replaces the incumbent, the
// lowest-index group wins among exact-cost ties — the same rule as
// CostBoundMultiBatchFlatCtx.
type Streamer struct {
	opt       Options
	prefilter bool // Alg 5 lines 9-12: two-point upper-bound skip
	iterBound bool // Alg 5 line 16: per-iteration lower-bound abort
	cbound    float64
	best      BatchResult
	count     int
}

// NewStreamer returns a streaming solver. useBound selects Algorithm 5
// pruning (true) or the "Original" exhaustive behaviour (false).
func NewStreamer(opt Options, useBound bool) *Streamer {
	return NewStreamerVariant(opt, useBound, useBound)
}

// NewStreamerVariant enables Algorithm 5's two pruning mechanisms
// independently — the two-point prefilter and the in-iteration lower-bound
// abort — so the ablation experiment can attribute the speedup.
func NewStreamerVariant(opt Options, prefilter, iterBound bool) *Streamer {
	return &Streamer{
		opt:       opt.norm(),
		prefilter: prefilter,
		iterBound: iterBound,
		cbound:    math.Inf(1),
		best:      BatchResult{Cost: math.Inf(1), GroupIndex: -1},
	}
}

// Offer processes one Fermat-Weber problem with constant cost offset off.
// Empty groups are ignored.
func (s *Streamer) Offer(g Group, off float64) error {
	gi := s.count
	s.count++
	if len(g) == 0 {
		return nil
	}
	s.best.Stats.Problems++
	// Alg 5 lines 9-12 / Alg 1 lines 4-5: with positive weights the optimum
	// of any two-point subset lower-bounds the full group's optimal cost, so
	// the prefilter applies to every group of ≥ 3 points — including the
	// 3-point and collinear ones the exact fast paths handle below. For
	// n-type queries with small n this is the only pruning that ever fires.
	if s.prefilter && len(g) >= 3 && !math.IsInf(s.cbound, 1) {
		if solve2(g[:2]).Cost+off > s.cbound {
			s.best.Stats.Prefiltered++
			return nil
		}
	}
	var res Result
	if len(g) <= 3 || isCollinear(g) {
		var err error
		res, err = Solve(g, s.opt)
		if err != nil {
			return err
		}
		s.best.Stats.ExactSolves++
	} else {
		bound := math.Inf(1)
		if s.iterBound {
			bound = s.cbound - off
		}
		res = weiszfeld(g, s.opt, bound)
		s.best.Stats.TotalIters += res.Iters
		if res.Pruned {
			s.best.Stats.PrunedGroups++
			return nil
		}
	}
	if total := res.Cost + off; total < s.cbound {
		s.cbound = total
		s.best.Loc = res.Loc
		s.best.Cost = total
		s.best.GroupIndex = gi
	}
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

// isCollinear reports whether a group takes the exact collinear fast path.
func isCollinear(g Group) bool {
	_, ok := collinear(g)
	return ok
}
