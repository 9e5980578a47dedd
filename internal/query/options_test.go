package query

import (
	"math"
	"math/rand"
	"testing"
)

func TestPruneOverlapPreservesResult(t *testing.T) {
	r := rand.New(rand.NewSource(111))
	for trial := 0; trial < 6; trial++ {
		in := randomInput(r, []int{4 + r.Intn(8), 4 + r.Intn(8), 4 + r.Intn(8)}, true)
		base, err := Solve(in, RRB)
		if err != nil {
			t.Fatal(err)
		}
		in.PruneOverlap = true
		pruned, err := Solve(in, RRB)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(pruned.Cost-base.Cost) / math.Max(base.Cost, 1); rel > 1e-6 {
			t.Fatalf("trial %d: pruning changed the optimum: %v vs %v", trial, pruned.Cost, base.Cost)
		}
		if pruned.Stats.OVRs > base.Stats.OVRs {
			t.Fatalf("trial %d: pruning grew the MOVD (%d > %d)", trial, pruned.Stats.OVRs, base.Stats.OVRs)
		}
		mbrbBase, err := Solve(Input{Sets: in.Sets, Bounds: in.Bounds, Epsilon: in.Epsilon}, MBRB)
		if err != nil {
			t.Fatal(err)
		}
		mbrbPruned, err := Solve(in, MBRB)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(mbrbPruned.Cost-mbrbBase.Cost) / math.Max(mbrbBase.Cost, 1); rel > 1e-6 {
			t.Fatalf("trial %d MBRB: pruning changed the optimum: %v vs %v",
				trial, mbrbPruned.Cost, mbrbBase.Cost)
		}
	}
}

func TestPruneOverlapActuallyPrunes(t *testing.T) {
	r := rand.New(rand.NewSource(222))
	// Larger sets make far-apart combinations abundant.
	in := randomInput(r, []int{30, 30, 30}, false)
	in.PruneOverlap = true
	// A cached pruned overlap would skip the sweep and report no pruning.
	in.DisableDiagramCache = true
	res, err := Solve(in, RRB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Overlap.PrunedOVRs == 0 {
		t.Fatal("expected at least one pruned OVR on a 30x30x30 instance")
	}
	noPrune, err := Solve(Input{Sets: in.Sets, Bounds: in.Bounds, Epsilon: in.Epsilon, DisableDiagramCache: true}, RRB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Groups >= noPrune.Stats.Groups {
		t.Fatalf("pruning should reduce Fermat-Weber problems: %d vs %d",
			res.Stats.Groups, noPrune.Stats.Groups)
	}
}

func TestParallelWorkersPreserveResult(t *testing.T) {
	r := rand.New(rand.NewSource(333))
	in := randomInput(r, []int{12, 10, 14}, true)
	seq, err := Solve(in, RRB)
	if err != nil {
		t.Fatal(err)
	}
	in.Workers = 4
	par, err := Solve(in, RRB)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(par.Cost-seq.Cost) / seq.Cost; rel > 1e-6 {
		t.Fatalf("parallel result %v vs sequential %v", par.Cost, seq.Cost)
	}
	// Weighted (MBRB) path under parallel VD generation.
	in2 := additiveInput(r, []int{5, 5, 5})
	in2.Workers = 3
	parw, err := Solve(in2, MBRB)
	if err != nil {
		t.Fatal(err)
	}
	in2.Workers = 0
	seqw, err := Solve(in2, MBRB)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(parw.Cost-seqw.Cost) / seqw.Cost; rel > 1e-6 {
		t.Fatalf("parallel weighted result %v vs sequential %v", parw.Cost, seqw.Cost)
	}
}

func TestParallelRRBRejectionStillWorks(t *testing.T) {
	r := rand.New(rand.NewSource(444))
	in := additiveInput(r, []int{4, 4})
	in.Workers = 4
	in.WeightedEpsilon = -1 // force exact: the only mode weighted RRB rejects
	if _, err := Solve(in, RRB); err == nil {
		t.Fatal("parallel exact-forced RRB with weighted objects should still be rejected")
	}
	// Auto mode must instead answer via approximate weighted cells and agree
	// with the weighted MBRB path on the optimum.
	in.WeightedEpsilon = 0
	rrb, err := Solve(in, RRB)
	if err != nil {
		t.Fatal(err)
	}
	mbrb, err := Solve(in, MBRB)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(rrb.Cost-mbrb.Cost) / math.Max(1, mbrb.Cost); rel > 1e-6 {
		t.Fatalf("weighted RRB cost %v vs MBRB %v", rrb.Cost, mbrb.Cost)
	}
}
