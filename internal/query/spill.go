package query

import (
	"context"
	"os"
	"time"

	"molq/internal/core"
	"molq/internal/obs"
	"molq/internal/store"
)

// finishSpilled completes a solve whose final overlap goes through disk
// (Input.SpillDir): the last ⊕ streams its OVRs to a temporary snapshot and
// the optimizer streams them back, deduplicating combinations on the fly.
// The spilled ⊕ is core.OverlapStream's sequential sweep at any Workers, so
// the file's OVR order, and with it the optimizer's tie rule, does not
// depend on scheduling. The temporary file is removed before returning.
func (in *Input) finishSpilled(
	ctx context.Context,
	res Result,
	acc, last *core.MOVD,
	prune core.PruneFunc,
	ovStart, totalStart time.Time,
	root, ovSpan *obs.Span,
) (Result, error) {
	tmp, err := os.CreateTemp(in.SpillDir, "molq-spill-*.movd")
	if err != nil {
		return res, err
	}
	path := tmp.Name()
	tmp.Close()
	defer os.Remove(path)

	spillSpan := ovSpan.Child("⊕ spill")
	st, err := store.OverlapToFile(acc, last, prune, path)
	if err != nil {
		return res, err
	}
	spillSpan.SetAttr("events", st.Events)
	spillSpan.SetAttr("ovrs", st.OutputOVRs)
	spillSpan.End()
	res.Stats.Overlap.Add(st)
	res.Stats.OverlapTime = time.Since(ovStart)
	res.Stats.OVRs = st.OutputOVRs
	res.Stats.PointsManaged = st.OutputPoints
	ovSpan.SetAttr("ovrs", res.Stats.OVRs)
	ovSpan.EndWith(res.Stats.OverlapTime)

	// Streaming optimizer (Alg 5 over the spill file).
	optSpan := root.Child("optimize")
	optStart := time.Now()
	seen := make(map[string]struct{})
	batch, err := in.stream(ctx, !in.DisableCostBound, func(offer func([]core.Object) error) error {
		return store.IterateOVRs(path, func(o *core.OVR) error {
			k := o.DedupKey()
			if _, dup := seen[k]; dup {
				return nil
			}
			seen[k] = struct{}{}
			return offer(o.POIs)
		})
	})
	if err != nil {
		return res, err
	}
	res.Stats.OptimizeTime = time.Since(optStart)
	res.Stats.Groups = len(seen)
	res.Stats.Fermat = batch.Stats
	res.Loc = batch.Loc
	res.Cost = batch.Cost
	res.Stats.TotalTime = time.Since(totalStart)
	optSpan.SetAttr("groups", res.Stats.Groups)
	optSpan.EndWith(res.Stats.OptimizeTime)
	root.EndWith(res.Stats.TotalTime)
	return res, nil
}
