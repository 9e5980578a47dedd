package main

import (
	"fmt"
	"time"

	"molq/internal/mwvd"
	"molq/internal/query"
)

// The traced run's replay: each sampled request goes once over HTTP and
// once in-process through the same public calls the handler makes (body
// decode, the query layer, response encode). The HTTP round trip minus the
// in-process parts is the wire share (transport, routing, middleware,
// admission). The query call splits into its phases by the durations its
// own Stats, UpdateStats and mwvd.Stats report.

// replayItem is one replayed request, or one in-process replay of set-up
// work (rtt 0).
type replayItem struct {
	op string
	o  outcome
	at time.Time
	// rtt is the HTTP round trip; decode, call and encode the in-process
	// replay of the handler's work.
	rtt, decode, call, encode time.Duration
	// stats is the query call's report (nil for mutations); built marks a
	// call that constructed diagrams rather than reading cached ones.
	stats  *query.Stats
	built  bool
	update *query.UpdateStats
	// mw is the weighted-diagram build of the request's weighted type.
	mw *mwvd.Stats
	// The cluster hop: the slowest shard's round trip and reported compute,
	// and the router-side JSON work (request marshal, responses decode).
	shardRTT, shardCompute, marshal time.Duration
	// storeWrite and storeRead time the shard snapshot codec over one cut
	// of the engine (op "store").
	storeWrite, storeRead time.Duration
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerMetrics aggregates replayed items into per-layer metrics and runs
// the sum checks. Times are medians over the items that have them; shares
// are of the summed round trips.
func layerMetrics(items []replayItem) (map[string]float64, []string) {
	var rtt, dec, enc, wire, vd, ov, opt []float64
	var events, pairs, ovrs, groups, exact, prefilt, iters, dirty, cells []float64
	var sumRTT, sumInproc, sumPhases, sumTotal, sumPairs, sumOVRs float64
	var upd, updVD, updSplice, updReindex, mwF, mwR, mwE, shRTT, shComp, marshal float64
	updates, incremental := 0, 0
	for _, it := range items {
		if it.o != ok {
			continue
		}
		if it.rtt > 0 {
			rtt = append(rtt, us(it.rtt))
			dec = append(dec, us(it.decode))
			enc = append(enc, us(it.encode))
			wire = append(wire, us(it.rtt-it.decode-it.call-it.encode))
			sumRTT += us(it.rtt)
			sumInproc += us(it.decode + it.call + it.encode)
			shRTT += us(it.shardRTT)
			shComp += us(it.shardCompute)
			marshal += us(it.marshal)
		}
		if st := it.stats; st != nil {
			sumPhases += us(st.VDTime + st.OverlapTime + st.OptimizeTime)
			sumTotal += us(st.TotalTime)
			if it.op != "query" {
				vd = append(vd, us(st.VDTime))
				ov = append(ov, us(st.OverlapTime))
			}
			if it.op != "setup" {
				opt = append(opt, us(st.OptimizeTime))
				f := st.Fermat
				groups = append(groups, float64(f.Problems))
				iters = append(iters, float64(f.TotalIters))
				if f.Problems > 0 {
					exact = append(exact, float64(f.ExactSolves)/float64(f.Problems))
					prefilt = append(prefilt, float64(f.Prefiltered)/float64(f.Problems))
				}
			}
			if it.built {
				o := st.Overlap
				events = append(events, float64(o.Events))
				pairs = append(pairs, float64(o.CandidatePairs))
				ovrs = append(ovrs, float64(o.OutputOVRs))
				sumPairs += float64(o.CandidatePairs)
				sumOVRs += float64(o.OutputOVRs)
			}
		}
		if u := it.update; u != nil {
			updates++
			upd += us(u.TotalTime)
			updVD += us(u.VDTime)
			updSplice += us(u.SpliceTime)
			updReindex += us(u.ReindexTime)
			if !u.Rebuilt {
				incremental++
				dirty = append(dirty, float64(u.DirtyCells))
			}
		}
		if m := it.mw; m != nil {
			mwF += us(m.Phases.Filter)
			mwR += us(m.Phases.Refine)
			mwE += us(m.Phases.Emit)
			cells = append(cells, float64(m.Cells))
		}
	}
	share := func(x float64) float64 {
		if sumRTT == 0 {
			return 0
		}
		return 100 * x / sumRTT
	}
	m := map[string]float64{
		"httpapi.round_trip_us":     median(rtt),
		"httpapi.decode_us":         median(dec),
		"httpapi.encode_us":         median(enc),
		"httpapi.wire_us":           median(wire),
		"query.vd_us":               median(vd),
		"query.overlap_us":          median(ov),
		"query.optimize_us":         median(opt),
		"query.update_pct":          share(upd),
		"query.update_vd_pct":       share(updVD),
		"query.update_splice_pct":   share(updSplice),
		"query.update_reindex_pct":  share(updReindex),
		"query.dirty_cells":         median(dirty),
		"core.sweep_events":         median(events),
		"core.candidate_pairs":      median(pairs),
		"core.ovrs":                 median(ovrs),
		"fermat.groups":             median(groups),
		"fermat.exact_rate":         median(exact),
		"fermat.prefiltered_rate":   median(prefilt),
		"fermat.iters":              median(iters),
		"mwvd.filter_pct":           share(mwF),
		"mwvd.refine_pct":           share(mwR),
		"mwvd.emit_pct":             share(mwE),
		"mwvd.cells":                median(cells),
		"cluster.shard_rtt_pct":     share(shRTT),
		"cluster.shard_compute_pct": share(shComp),
		"cluster.marshal_pct":       share(marshal),
	}
	if updates > 0 {
		m["query.update_incremental_rate"] = float64(incremental) / float64(updates)
	}
	if sumPairs > 0 {
		m["core.pair_yield"] = sumOVRs / sumPairs
	}
	if shRTT > 0 {
		m["cluster.router_pct"] = share(sumRTT - shRTT)
	}

	var problems []string
	if d := sumPhases - sumTotal; d > 0.1*sumTotal || -d > 0.1*sumTotal {
		problems = append(problems, fmt.Sprintf(
			"sum check: vd + overlap + optimize = %.0f us, Stats.TotalTime = %.0f us (off by more than 10%%)",
			sumPhases, sumTotal))
	}
	// The in-process replay repeats work the round trip already contains,
	// so it cannot take longer except by run-to-run noise, which on
	// 200 ms weighted solves is larger than their whole wire share.
	if sumInproc > 1.05*sumRTT {
		problems = append(problems, fmt.Sprintf(
			"sum check: decode + query + encode = %.0f us exceeds the round trips' %.0f us by more than 5%%",
			sumInproc, sumRTT))
	}
	return m, problems
}

// spansOf lays each replayed item out as a span tree: a root per request,
// then its round trip, decode, the query call's phases and encode back to
// back, each as long as it measured. Span names are the per-layer metric
// names without their unit suffix.
func spansOf(items []replayItem, t0 time.Time) spanLog {
	var l spanLog
	for _, it := range items {
		if it.o != ok {
			continue
		}
		root := l.add(t0, -1, "replay/"+it.op, it.at, it.at)
		cur := it.at
		next := func(parent int, name string, d time.Duration) int {
			id := l.add(t0, parent, name, cur, cur.Add(d))
			cur = cur.Add(d)
			return id
		}
		if it.op == "store" {
			next(root, "store.write_shard", it.storeWrite)
			next(root, "store.read_shard", it.storeRead)
			l.spans[root].EndUS = us(cur.Sub(t0))
			continue
		}
		if it.rtt > 0 {
			next(root, "httpapi.round_trip", it.rtt)
		}
		next(root, "httpapi.decode", it.decode)
		switch {
		case it.update != nil:
			u := it.update
			start := cur
			parent := l.add(t0, root, "query.update", start, start.Add(it.call))
			next(parent, "query.update_vd", u.VDTime)
			next(parent, "query.update_splice", u.SpliceTime)
			next(parent, "query.update_reindex", u.ReindexTime)
			cur = start.Add(it.call)
		case it.shardRTT > 0:
			next(root, "cluster.marshal", it.marshal)
			hop := next(root, "cluster.shard_rtt", it.shardRTT)
			l.add(t0, hop, "cluster.shard_compute",
				cur.Add(-(it.shardRTT+it.shardCompute)/2), cur.Add(-(it.shardRTT-it.shardCompute)/2))
			next(root, "query.optimize", it.stats.OptimizeTime)
		case it.stats != nil:
			next(root, "query.vd", it.stats.VDTime)
			next(root, "query.overlap", it.stats.OverlapTime)
			next(root, "query.optimize", it.stats.OptimizeTime)
		}
		next(root, "httpapi.encode", it.encode)
		if m := it.mw; m != nil {
			next(root, "mwvd.filter", m.Phases.Filter)
			refine := next(root, "mwvd.refine", m.Phases.Refine)
			l.add(t0, refine, "mwvd.emit", cur.Add(-m.Phases.Emit), cur)
		}
		l.spans[root].EndUS = us(cur.Sub(t0))
	}
	return l
}
