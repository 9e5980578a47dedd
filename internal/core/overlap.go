package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"molq/internal/geom"
	"molq/internal/obs"
	"molq/internal/polyclip"
)

// OverlapStats counts the work performed by one ⊕ evaluation; the Fig 11–14
// experiments report these alongside wall-clock time.
type OverlapStats struct {
	Events         int // start+end events processed
	CandidatePairs int // OVR pairs whose x-ranges overlapped (Alg 3/4 line 4)
	RegionTests    int // exact region intersections computed (RRB only)
	OutputOVRs     int // OVRs appended to the result
	OutputPoints   int // boundary points emitted (PointsManaged of the result)
	PrunedOVRs     int // OVRs discarded by a PruneFunc (prune non-nil only)
}

// Add accumulates o into s. Every counter of OverlapStats must be summed
// here; a reflection test fails when a newly added field is missed, so
// callers (the query chain accumulator, the spill path, the parallel engine)
// can rely on Add covering the whole struct.
func (s *OverlapStats) Add(o OverlapStats) {
	s.Events += o.Events
	s.CandidatePairs += o.CandidatePairs
	s.RegionTests += o.RegionTests
	s.OutputOVRs += o.OutputOVRs
	s.OutputPoints += o.OutputPoints
	s.PrunedOVRs += o.PrunedOVRs
}

// PruneFunc decides, from an OVR's bounding box and its (possibly partial)
// object combination, whether the OVR can be discarded during overlap. It
// implements the paper's future-work idea (Sec 8) of "filtering out the
// impossible POI combinations during the MOVD overlapping": a sound
// implementation returns true only when no location inside mbr can be the
// query answer (e.g. when a lower bound of WGD over mbr already exceeds a
// known upper bound of the optimum). Pruned OVRs do not propagate into
// later overlaps, cutting both the sweep fan-out and the Fermat-Weber load.
type PruneFunc func(mbr geom.Rect, pois []Object) bool

// Overlap evaluates the ⊕ chain movds[0] ⊕ movds[1] ⊕ … (Eq 22, folded over
// the diagrams by Eq 27) with the plane-sweep procedure of Algorithm 2 and
// returns the materialised result with the sweep statistics accumulated over
// the chain. The boundary handler is chosen by the operands' mode: RRB
// intersects real convex regions (Algorithm 3), MBRB intersects bounding
// rectangles only (Algorithm 4). prune, when non-nil, is applied to every OVR
// before it joins an intermediate or the final result.
//
// At workers ≤ 1 the chain is the sequential left fold, and a non-nil span
// gets one child "⊕ i" per step. At workers > 1 it is the parallel engine of
// overlap_parallel.go — a balanced reduction over sharded sweeps — and prune
// must be safe for concurrent use. The sharded sweep orders its output by
// strip, so the OVR order and the Events statistic depend on the worker
// count, while the result is deterministic for a given one. At least one
// operand is required; a single operand is returned as is, so callers must
// not mutate the result.
func Overlap(prune PruneFunc, workers int, span *obs.Span, movds ...*MOVD) (*MOVD, OverlapStats, error) {
	var stats OverlapStats
	if len(movds) == 0 {
		return nil, stats, errors.New("core: Overlap needs at least one operand")
	}
	if workers > 1 {
		return reduceChain(prune, workers, span, movds)
	}
	acc := movds[0]
	for i, m := range movds[1:] {
		var sp *obs.Span
		if span != nil {
			sp = span.Child(fmt.Sprintf("⊕ %d", i+1))
		}
		next, st, err := overlapPair(acc, m, prune, 1, nil)
		if err != nil {
			return nil, stats, err
		}
		stats.Add(st)
		sp.SetAttr("events", st.Events)
		sp.SetAttr("pairs", st.CandidatePairs)
		sp.SetAttr("ovrs", st.OutputOVRs)
		sp.End()
		acc = next
	}
	return acc, stats, nil
}

// event is a start or end of an OVR's y-projection (Sec 5.2).
type event struct {
	y    float64
	kind uint8 // 0 = start (max y), 1 = end (min y)
	side uint8 // 0 = first operand, 1 = second operand
	idx  int32 // OVR index within its operand
}

// sortEvents puts events, which arrive ordered by (kind, side, idx), into
// the sweep order: descending y, and at equal y starts before ends (so
// regions touching along a horizontal line are still paired; their
// intersection is degenerate and RRB drops it), then side, then index. It is
// a stable LSD radix sort on an order-preserving 64-bit image of y, one
// byte per pass, skipping bytes every key shares; stability carries the
// arrival order through ties. -0 is keyed as +0 because the two compare
// equal. It returns the sorted events, which may live in either of the
// scratch's event buffers.
func (sc *sweepScratch) sortEvents(events []event) []event {
	n := len(events)
	keys := slices.Grow(sc.keys[:0], n)[:n]
	var counts [8][256]int32
	for i := range events {
		y := events[i].y
		if y == 0 {
			y = 0 // -0 → +0
		}
		b := math.Float64bits(y)
		if b>>63 != 0 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		b = ^b // descending
		keys[i] = b
		for d := range 8 {
			counts[d][byte(b>>(8*d))]++
		}
	}
	tmp := slices.Grow(sc.tmpEvents[:0], n)[:n]
	tmpKeys := slices.Grow(sc.tmpKeys[:0], n)[:n]
	for d := range 8 {
		c := &counts[d]
		shift := 8 * d
		if n == 0 || c[byte(keys[0]>>shift)] == int32(n) {
			continue // every key shares this byte
		}
		var off [256]int32
		sum := int32(0)
		for v := range c {
			off[v] = sum
			sum += c[v]
		}
		for i, k := range keys {
			v := byte(k >> shift)
			tmp[off[v]] = events[i]
			tmpKeys[off[v]] = k
			off[v]++
		}
		events, tmp = tmp, events
		keys, tmpKeys = tmpKeys, keys
	}
	sc.events, sc.tmpEvents = events, tmp
	sc.keys, sc.tmpKeys = keys, tmpKeys
	return events
}

// OverlapStream runs the ⊕ plane sweep emitting each surviving OVR through
// emit instead of materialising the result MOVD — the disk-based pipeline
// (Sec 8 future work) spills the emitted OVRs straight to a file so the
// output, which can dwarf both operands, never has to fit in memory. The
// emitted pointer and its Region/POIs slices are only valid during the call:
// they alias the sweep's pooled scratch buffers and are overwritten by the
// next candidate pair, so emit must deep-copy (OVR.Clone) what it keeps.
func OverlapStream(a, b *MOVD, prune PruneFunc, emit func(*OVR) error) (OverlapStats, error) {
	var stats OverlapStats
	if err := checkOperands(a, b); err != nil {
		return stats, err
	}
	err := sweep(a, b, nil, nil, nil, nil, nil, prune, &stats, emit)
	recordSweep(stats)
	return stats, err
}

// checkOperands rejects operand pairs that cannot be overlapped.
func checkOperands(a, b *MOVD) error {
	if a.Mode != b.Mode {
		return ErrModeMismatch
	}
	if a.Bounds != b.Bounds {
		return fmt.Errorf("core: operand bounds differ: %v vs %v", a.Bounds, b.Bounds)
	}
	return nil
}

// sweepScratch bundles the allocation-heavy working state of one plane sweep:
// the clipping buffers, the event queue, the two flat active sets and the
// merged-POI buffer the emitted OVR borrows. Sweeps draw it from
// sweepScratchPool, so each concurrent strip of the sharded parallel engine
// works on private scratch (race-free by construction) while repeated sweeps
// reuse the grown buffers.
type sweepScratch struct {
	clip   polyclip.ClipBuf
	events []event
	// sortEvents' radix keys and ping-pong buffers
	keys, tmpKeys []uint64
	tmpEvents     []event
	status        [2]activeSet
	pois          []Object
	flats         [2]flatMBRs
}

var sweepScratchPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// sweep runs the Algorithm 2 plane sweep over the OVR index subsets subA and
// subB (nil means every OVR of that operand). fa and fb are the operands'
// MBRs in structure-of-arrays form; nil means "load into pooled scratch" —
// the sharded parallel engine loads them once and shares them read-only
// across every strip so k strips do not rebuild the layout k times.
//
// own, when non-nil, restricts the evaluation to candidate pairs this sweep
// is responsible for — the parallel engine (overlap_parallel.go) runs one
// sweep per horizontal strip, assigns each OVR to every strip its y-range
// touches, and owns each pair in exactly one strip, so the union of the
// strips' emissions is exactly the sequential sweep's multiset. A pair is
// first discovered at the start event of its later-starting member, where
// the top edge of the pair's y-intersection min(maxY_1, maxY_2) equals the
// event's own y (the earlier member is still in the status tree, so its max
// y is ≥ the sweep line): ownership therefore depends only on the start
// event, and the test is hoisted out of the per-pair callback — a non-owner
// strip skips the status-tree range query entirely. The test runs before
// any statistic other than Events is counted, so every OverlapStats field
// except Events is shard-independent.
func sweep(a, b *MOVD, fa, fb *flatMBRs, subA, subB []int32, own func(topY float64) bool, prune PruneFunc, stats *OverlapStats, emit func(*OVR) error) error {
	mode := a.Mode
	operands := [2]*MOVD{a, b}
	subsets := [2][]int32{subA, subB}
	n := 0
	for side, m := range operands {
		if subsets[side] != nil {
			n += len(subsets[side])
		} else {
			n += len(m.OVRs)
		}
	}
	scratch := sweepScratchPool.Get().(*sweepScratch)
	defer sweepScratchPool.Put(scratch)
	flats := [2]*flatMBRs{fa, fb}
	for side, m := range operands {
		if flats[side] == nil {
			scratch.flats[side].load(m.OVRs)
			flats[side] = &scratch.flats[side]
		}
		scratch.status[side].reset(len(m.OVRs))
	}
	events := scratch.events[:0]
	if cap(events) < 2*n {
		events = make([]event, 0, 2*n)
	}
	// Generate the events already ordered by (kind, side, idx) — subsets
	// are ascending — so the stable sort on y below yields the total order.
	for kind := range uint8(2) {
		for side := range operands {
			f := flats[side]
			ys := f.maxY
			if kind == 1 {
				ys = f.minY
			}
			if sub := subsets[side]; sub != nil {
				for _, i := range sub {
					events = append(events, event{y: ys[i], kind: kind, side: uint8(side), idx: i})
				}
			} else {
				for i := range operands[side].OVRs {
					events = append(events, event{y: ys[i], kind: kind, side: uint8(side), idx: int32(i)})
				}
			}
		}
	}
	events = scratch.sortEvents(events)
	status := &scratch.status
	var emitErr error
	// One reusable emission record for the whole sweep: emit receives its
	// address, so a callback-local would escape and cost one heap allocation
	// per emitted OVR — the reuse is exactly the documented emit contract
	// (the value is overwritten by the next candidate pair).
	var out OVR
	for _, e := range events {
		if emitErr != nil {
			break
		}
		stats.Events++
		f := flats[e.side]
		i := e.idx
		if e.kind == 1 {
			status[e.side].remove(i)
			continue
		}
		status[e.side].insert(i, f.minX[i], f.maxX[i])
		if own != nil && !own(e.y) {
			continue
		}
		ovr := &operands[e.side].OVRs[i]
		otherMOVD := operands[1-e.side]
		of := flats[1-e.side]
		act := &status[1-e.side]
		lo, hi := f.minX[i], f.maxX[i]
		// Candidate scan: every active member of the other operand whose
		// x-range overlaps (closed intervals, so touching ranges pair up
		// exactly like the interval tree paired them).
		for k := 0; k < len(act.idx); k++ {
			if act.minX[k] > hi || act.maxX[k] < lo {
				continue
			}
			j := act.idx[k]
			stats.CandidatePairs++
			if mode == RRB {
				stats.RegionTests++
				// Degenerate-sliver screen from the cached flat areas;
				// ConvexIntersectBuf would otherwise rescan both regions'
				// vertices for every candidate pair.
				if f.area[i] <= polyclip.MinArea || of.area[j] <= polyclip.MinArea {
					continue
				}
				region := polyclip.ConvexIntersectTrustedBuf(&scratch.clip, ovr.Region, otherMOVD.OVRs[j].Region, f.area[i], of.area[j])
				if region == nil {
					continue
				}
				out = OVR{Region: region, MBR: region.Bounds()}
			} else {
				// Flat-layout MBR intersection, matching Rect.Intersect +
				// IsEmpty exactly: empty iff strictly inverted, so
				// touching and degenerate rectangles survive.
				lox, hix := lo, hi
				if of.minX[j] > lox {
					lox = of.minX[j]
				}
				if of.maxX[j] < hix {
					hix = of.maxX[j]
				}
				loy, hiy := f.minY[i], f.maxY[i]
				if of.minY[j] > loy {
					loy = of.minY[j]
				}
				if of.maxY[j] < hiy {
					hiy = of.maxY[j]
				}
				if lox > hix || loy > hiy {
					continue
				}
				out = OVR{MBR: geom.Rect{Min: geom.Pt(lox, loy), Max: geom.Pt(hix, hiy)}}
			}
			scratch.pois = mergePOIsInto(scratch.pois[:0], ovr.POIs, otherMOVD.OVRs[j].POIs)
			out.POIs = scratch.pois
			if prune != nil && prune(out.MBR, out.POIs) {
				stats.PrunedOVRs++
				continue
			}
			stats.OutputOVRs++
			if mode == RRB {
				stats.OutputPoints += len(out.Region)
			} else {
				stats.OutputPoints += 2
			}
			if err := emit(&out); err != nil {
				emitErr = err
				break
			}
		}
	}
	return emitErr
}

// mergePOIsInto appends to dst the union of two POI lists, deduplicating
// objects that appear in both (which happens when the operands' generator
// sets are not disjoint, e.g. under the idempotent law of Property 9). Both
// inputs are ordered by (Type, ID) — basic diagrams carry a single POI and
// every merged list is produced here — so a single linear merge suffices on
// the hot ⊕ path; the output keeps the same canonical order. dst (typically
// recycled sweep scratch) must not alias a or b.
func mergePOIsInto(dst, a, b []Object) []Object {
	if len(a) == 1 && len(b) == 1 {
		// Basic ⊕ basic, the bulk of every chain's first level: one POI per
		// side, so the merge is a single comparison.
		x, y := &a[0], &b[0]
		switch {
		case x.Type < y.Type || (x.Type == y.Type && x.ID < y.ID):
			return append(dst, *x, *y)
		case x.Type == y.Type && x.ID == y.ID:
			return append(dst, *x)
		default:
			return append(dst, *y, *x)
		}
	}
	out := dst
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := &a[i], &b[j]
		switch {
		case x.Type < y.Type || (x.Type == y.Type && x.ID < y.ID):
			out = append(out, *x)
			i++
		case x.Type == y.Type && x.ID == y.ID:
			out = append(out, *x)
			i++
			j++
		default:
			out = append(out, *y)
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
