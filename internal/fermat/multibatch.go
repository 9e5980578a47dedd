package fermat

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"molq/internal/geom"
)

// This file is the optimizer's batch driver: one or many independent
// Algorithm-5 batches — one per user weight vector in Engine.QueryBatch, a
// single one for Solve and Engine.Query — evaluated over one shared worker
// pool. A multi-batch pays goroutine startup once per request and keeps
// every worker busy across vector boundaries, so a straggler vector cannot
// idle the pool. Each batch keeps its own global cost bound (bounds never
// transfer across weight vectors — a cheap optimum under one user's weights
// certifies nothing about another's).

// BatchStats records how much work a batch solve performed; the Fig 10 and
// Fig 8/9 experiments report these counters.
type BatchStats struct {
	Problems     int // non-empty groups, including those an early stop skipped
	ExactSolves  int // handled by a 1/2/3-point or collinear fast path
	Prefiltered  int // rejected by the pair lower-bound prefilter or skipped by a bound-ordered scan's early stop
	PrunedGroups int // abandoned mid-iteration by the global cost bound
	TotalIters   int // Weiszfeld iterations across all groups
}

// prefiltered counts n groups the prefilter or an early stop skipped.
func (st *BatchStats) prefiltered(n int) {
	st.Problems += n
	st.Prefiltered += n
}

// BatchResult is the best location across a batch of Fermat-Weber problems.
type BatchResult struct {
	Loc        geom.Point
	Cost       float64
	GroupIndex int // index of the winning group in the batch
	Stats      BatchStats
}

// offer makes (cost, loc, gi) the incumbent if it wins under the tie rule:
// lower total cost first, then lower group index. An incumbent with
// GroupIndex < 0 is empty and always loses.
func (b *BatchResult) offer(cost float64, loc geom.Point, gi int) {
	if b.GroupIndex < 0 || cost < b.Cost || (cost == b.Cost && gi < b.GroupIndex) {
		b.Cost, b.Loc, b.GroupIndex = cost, loc, gi
	}
}

// Errors reported for malformed problems.
var (
	ErrBadOffsets  = errors.New("fermat: offset factors length does not match points")
	ErrBadPairDist = errors.New("fermat: pair distances length does not match groups")
)

// ctxCheckStride is how many groups a sequential scan processes between
// cancellation checks: frequent enough that a canceled request stops within
// microseconds, rare enough that the check never shows up in profiles.
const ctxCheckStride = 64

// CostBoundMultiBatchFlatCtx implements Algorithm 5 for every problem and
// returns one BatchResult per problem, in order: each scan keeps a global
// cost bound, skips groups whose pair lower bound already exceeds it, and
// aborts Weiszfeld iterations as soon as the Eq-10 lower bound certifies a
// group cannot win. When the problem's geometry carries an Order and MinW >
// 0, each scan walks the groups in that order and stops at the first group
// FlatProblem.stops allows; the skipped groups count as prefiltered.
//
// workers ≤ 0 means GOMAXPROCS; the pool is clamped to the total group
// count, and a pool of one runs sequentially. The sequential path
// warm-starts each problem's scan at the previous problem's winning group:
// the problems of one multi-batch share their geometry (same candidate
// combinations, different weights), so the previous winner is usually
// competitive again; evaluating it first drops the cost bound immediately
// and the prefilter then discards most other groups. The parallel path fans
// tasks problem-major over the shared pool — all of problem 0's groups, then
// problem 1's, each in its scan order — so early tasks tighten a problem's
// bound before most of its groups are attempted, and the workers share each
// problem's bound through an atomic. A worker that reaches a problem's stop
// moves the shared task cursor past the problem's remaining groups.
//
// Tie rule: among groups that reach the merge with equal total cost, the
// lowest group index wins, in every worker's local best, in the merge and
// in the warm-started or bound-ordered scan. A group is skipped or
// abandoned only when a lower bound on its total strictly exceeds the
// incumbent's, so a group that ties the incumbent reaches the merge
// whichever of the two was visited first, and the winner depends only on
// the problem, not on the scan order, the worker count or the schedule —
// up to the last-bit rounding of those lower bounds, which exceed the
// group's computed cost only when they are tight to the last bit. The work
// counters of the parallel path depend on scheduling.
//
// Workers probe for cancellation before claiming each task (the sequential
// path every ctxCheckStride groups) and the call returns the context's error
// once it fires, so a canceled request releases the pool within one group's
// solve time.
func CostBoundMultiBatchFlatCtx(ctx context.Context, problems []FlatProblem, opt Options, workers int) ([]BatchResult, error) {
	if len(problems) == 0 {
		return nil, nil
	}
	total := 0
	starts := make([]int, len(problems)+1)
	for pi := range problems {
		if err := problems[pi].validate(); err != nil {
			return nil, err
		}
		starts[pi] = total
		total += problems[pi].Geom.Len()
	}
	starts[len(problems)] = total
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	opt = opt.norm()
	if workers <= 1 {
		return multiSequential(ctx, problems, opt)
	}
	return multiParallel(ctx, problems, starts, opt, workers)
}

// multiSequential scans the problems one after another, warm-starting each
// at the previous problem's winner.
func multiSequential(ctx context.Context, problems []FlatProblem, opt Options) ([]BatchResult, error) {
	out := make([]BatchResult, len(problems))
	var scratch []WeightedPoint
	first := 0
	for pi := range problems {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := problems[pi].scanOrdered(ctx, opt, first, &scratch)
		if err != nil {
			return nil, err
		}
		out[pi] = res
		first = res.GroupIndex
	}
	return out, nil
}

// multiParallel runs every (problem, group) task over one pool of workers.
// starts holds the prefix sums of the problems' group counts.
func multiParallel(ctx context.Context, problems []FlatProblem, starts []int, opt Options, workers int) ([]BatchResult, error) {
	done := ctx.Done()
	total := starts[len(problems)]
	bounds := make([]*atomicMin, len(problems))
	for pi := range bounds {
		bounds[pi] = newAtomicMin()
	}
	var next atomic.Int64
	var mu sync.Mutex
	merged := make([]BatchResult, len(problems))
	for pi := range merged {
		merged[pi].GroupIndex = -1
	}
	var firstErr error

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []WeightedPoint
			locals := make([]BatchResult, len(problems))
			for pi := range locals {
				locals[pi].GroupIndex = -1
			}
			for !canceled(done) {
				task := int(next.Add(1) - 1)
				if task >= total {
					break
				}
				// Map the flat task index to (problem, rank) via the
				// prefix sums: pi is the last start ≤ task.
				pi := sort.SearchInts(starts, task+1) - 1
				p := &problems[pi]
				local := &locals[pi]
				gi := p.Geom.at(task - starts[pi])
				cb := bounds[pi].load()
				if p.stops(gi, cb) {
					local.Stats.prefiltered(1)
					skipRest(&next, starts[pi+1], &local.Stats)
					continue
				}
				if p.rejects(gi, cb) {
					local.Stats.prefiltered(1)
					continue
				}
				res, ok, err := p.solveGroup(gi, opt, bounds[pi], &local.Stats, &scratch)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				if !ok {
					continue
				}
				total := res.Cost + p.off(gi)
				bounds[pi].update(total)
				local.offer(total, res.Loc, gi)
			}
			mu.Lock()
			for pi := range locals {
				mergeBatchResult(&merged[pi], &locals[pi])
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for pi := range merged {
		if merged[pi].GroupIndex < 0 {
			return nil, ErrNoPoints
		}
	}
	return merged, nil
}

// skipRest moves the task cursor to end, the first task of the next
// problem, claiming every task of the current problem that no worker has
// claimed yet, and counts those groups into st as prefiltered.
func skipRest(next *atomic.Int64, end int, st *BatchStats) {
	for {
		c := next.Load()
		if c >= int64(end) {
			return
		}
		if next.CompareAndSwap(c, int64(end)) {
			st.prefiltered(end - int(c))
			return
		}
	}
}

// mergeBatchResult folds one worker's local best and work counters into dst
// under the tie rule. A src that never won a group (GroupIndex < 0)
// contributes only its counters.
func mergeBatchResult(dst, src *BatchResult) {
	dst.Stats.Problems += src.Stats.Problems
	dst.Stats.ExactSolves += src.Stats.ExactSolves
	dst.Stats.Prefiltered += src.Stats.Prefiltered
	dst.Stats.PrunedGroups += src.Stats.PrunedGroups
	dst.Stats.TotalIters += src.Stats.TotalIters
	if src.GroupIndex >= 0 {
		dst.offer(src.Cost, src.Loc, src.GroupIndex)
	}
}

// atomicMin maintains a shared monotonically decreasing float64 (the global
// cost bound of Algorithm 5) with lock-free reads and CAS updates. Values
// are stored as math.Float64bits; all stored values are non-negative, for
// which the bits ordering matches the float ordering.
type atomicMin struct {
	bits atomic.Uint64
}

func newAtomicMin() *atomicMin {
	m := &atomicMin{}
	m.bits.Store(math.Float64bits(math.Inf(1)))
	return m
}

func (m *atomicMin) load() float64 { return math.Float64frombits(m.bits.Load()) }

// update lowers the bound to v if v is smaller; reports whether it did.
func (m *atomicMin) update(v float64) bool {
	nb := math.Float64bits(v)
	for {
		ob := m.bits.Load()
		if math.Float64frombits(ob) <= v {
			return false
		}
		if m.bits.CompareAndSwap(ob, nb) {
			return true
		}
	}
}

// canceled is the workers' non-blocking cancellation probe: false for a nil
// channel (Background context), so uncancellable callers pay one pointer
// compare per task.
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}
