package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"molq/internal/geom"
	"molq/internal/obs"
)

// This file is the parallel ⊕ engine behind Overlap at workers > 1. It
// parallelises the MOVD Overlapper along two independent axes:
//
//   - within one overlap, a sharded plane sweep: the search space is cut
//     into k horizontal strips, each OVR joins every strip its MBR's y-range
//     intersects, and k independent Algorithm-2 sweeps run on worker
//     goroutines. A candidate pair discovered in several strips is evaluated
//     only by the strip that contains the top edge of the pair's MBR
//     intersection, so the union of the strips' outputs is exactly the
//     sequential sweep's OVR multiset;
//
//   - across a multi-diagram chain, a balanced binary reduction of Eq 27's
//     left fold — sound by the associativity and commutativity of ⊕
//     (Properties 10–11) — so independent pairwise overlaps proceed
//     concurrently.
//
// Both emit the same OVR multiset as the sequential fold (bitwise for a
// single ⊕ and for chains whose reduction shape matches the left fold, i.e.
// up to three operands; longer chains produce the same combinations with
// region vertices equal up to floating-point association), in strip order
// rather than the fold's order. Statistics are shard-independent except
// Events, which counts per-strip work and therefore grows with the strip
// count; chain statistics of four or more operands additionally depend on
// the reduction shape. The strip count is the worker count capped at
// GOMAXPROCS, and with it fixed the output and statistics are deterministic.

// stripper partitions the bounds' y-extent into k equal horizontal strips.
type stripper struct {
	y0, h float64
	k     int
}

func newStripper(bounds geom.Rect, k int) stripper {
	return stripper{y0: bounds.Min.Y, h: bounds.Height() / float64(k), k: k}
}

// index maps a y coordinate to its strip, clamping outliers into the edge
// strips so every coordinate — bounds.Max.Y and MBRs escaping the bounds by
// epsilon included — has exactly one home. Because index is monotone, the
// owner strip of a pair (the strip of the top edge of its y-intersection)
// always lies within both members' assigned strip ranges.
func (s stripper) index(y float64) int {
	i := int(math.Floor((y - s.y0) / s.h))
	if i < 0 {
		return 0
	}
	if i >= s.k {
		return s.k - 1
	}
	return i
}

// assignFlat lists, per strip, the OVR indices whose [minY, maxY] range
// intersects it, reading the flat coordinate slices of the SoA layout.
func (s stripper) assignFlat(minY, maxY []float64) [][]int32 {
	out := make([][]int32, s.k)
	for i := range minY {
		lo := s.index(minY[i])
		hi := s.index(maxY[i])
		for si := lo; si <= hi; si++ {
			out[si] = append(out[si], int32(i))
		}
	}
	return out
}

// overlapPair materialises a ⊕ b. At workers ≤ 1, or when sharding cannot
// help, it runs one sequential sweep. Otherwise it runs the sharded sweep:
// both operands' MBRs are loaded into a flat SoA layout once and shared
// read-only across the strips, one sweep goroutine runs per non-empty strip
// and clones its surviving OVRs into a private buffer with its own arena, so
// the clone — the bulk of each emission — runs fully parallel, and the
// buffers are concatenated in strip order. A non-nil span gets one child per
// sweep carrying its counters, so a -trace flame summary shows the shard
// balance of one ⊕. prune must be safe for concurrent use when workers > 1.
func overlapPair(a, b *MOVD, prune PruneFunc, workers int, span *obs.Span) (*MOVD, OverlapStats, error) {
	var total OverlapStats
	if err := checkOperands(a, b); err != nil {
		return nil, total, err
	}
	result := &MOVD{
		Types:  typesUnion(a.Types, b.Types),
		Bounds: a.Bounds,
		Mode:   a.Mode,
	}
	// More strips than cores cannot run concurrently; they only add
	// duplicated boundary events and per-strip sort work. Clamping keeps the
	// requested degree an upper bound, never a demand.
	workers = min(workers, runtime.GOMAXPROCS(0))
	if workers <= 1 || a.Bounds.Height() <= 0 || len(a.OVRs) == 0 || len(b.OVRs) == 0 {
		var arena ovrArena
		// sweep fails only when emit does, and this emit cannot.
		_ = sweep(a, b, nil, nil, nil, nil, nil, prune, &total, func(o *OVR) error {
			result.OVRs = append(result.OVRs, arena.clone(o))
			return nil
		})
		recordSweep(total)
		if span != nil {
			sp := span.Child("sweep")
			setSweepAttrs(sp, total)
			sp.End()
		}
		return result, total, nil
	}
	strips := newStripper(a.Bounds, workers)
	var fa, fb flatMBRs
	fa.load(a.OVRs)
	fb.load(b.OVRs)
	subA := strips.assignFlat(fa.minY, fa.maxY)
	subB := strips.assignFlat(fb.minY, fb.maxY)

	bufs := make([][]OVR, strips.k)
	var (
		mu sync.Mutex // guards total
		wg sync.WaitGroup
	)
	for si := range bufs {
		if len(subA[si]) == 0 || len(subB[si]) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A pair's owner strip is the strip holding the top edge of its
			// y-intersection; the sweep evaluates ownership once per start
			// event (see sweep), so topY is always the event's own y.
			own := func(topY float64) bool {
				return strips.index(topY) == si
			}
			var stripSpan *obs.Span
			if span != nil {
				stripSpan = span.Child(fmt.Sprintf("strip %d", si))
			}
			// ⊕ output is proportional to its input (each OVR gains a bounded
			// number of partners); seeding capacity at the input size skips
			// the small early doublings of the append ramp.
			buf := make([]OVR, 0, len(subA[si])+len(subB[si]))
			var arena ovrArena
			var local OverlapStats
			_ = sweep(a, b, &fa, &fb, subA[si], subB[si], own, prune, &local, func(o *OVR) error {
				buf = append(buf, arena.clone(o))
				return nil
			})
			bufs[si] = buf
			recordSweep(local)
			setSweepAttrs(stripSpan, local)
			stripSpan.End()
			mu.Lock()
			total.Add(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	result.OVRs = slices.Concat(bufs...)
	return result, total, nil
}

// setSweepAttrs annotates a span with one sweep's counters (nil-safe).
func setSweepAttrs(sp *obs.Span, st OverlapStats) {
	if sp == nil {
		return
	}
	sp.SetAttr("events", st.Events)
	sp.SetAttr("pairs", st.CandidatePairs)
	sp.SetAttr("ovrs", st.OutputOVRs)
	if st.PrunedOVRs > 0 {
		sp.SetAttr("pruned", st.PrunedOVRs)
	}
}

// reduceChain evaluates the chain of Overlap at workers > 1 as a balanced
// reduction: at every round adjacent diagrams are overlapped pairwise on
// worker goroutines, each pairwise ⊕ sharded across its share of the worker
// budget, until one diagram remains. A non-nil span gets one child per
// pairwise ⊕, named by reduction round and pair, with its strips' spans
// underneath.
func reduceChain(prune PruneFunc, workers int, span *obs.Span, movds []*MOVD) (*MOVD, OverlapStats, error) {
	var stats OverlapStats
	cur := movds
	for round := 0; len(cur) > 1; round++ {
		pairs := len(cur) / 2
		next := make([]*MOVD, (len(cur)+1)/2)
		if len(cur)%2 == 1 {
			next[pairs] = cur[len(cur)-1] // odd tail carries into the next round
		}
		perPair := max(workers/pairs, 1)
		sts := make([]OverlapStats, pairs)
		errs := make([]error, pairs)
		var wg sync.WaitGroup
		for pi := 0; pi < pairs; pi++ {
			var pairSpan *obs.Span
			if span != nil {
				pairSpan = span.Child(fmt.Sprintf("⊕ round %d pair %d", round, pi))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				next[pi], sts[pi], errs[pi] = overlapPair(cur[2*pi], cur[2*pi+1], prune, perPair, pairSpan)
				setSweepAttrs(pairSpan, sts[pi])
				pairSpan.End()
			}()
		}
		wg.Wait()
		for pi := range sts {
			if errs[pi] != nil {
				return nil, stats, errs[pi]
			}
			stats.Add(sts[pi])
		}
		cur = next
	}
	return cur[0], stats, nil
}
