//go:build amd64

package query

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"molq/internal/core"
	"molq/internal/geom"
)

// The golden pins the exact outputs of sequential (Workers=1) solves and
// engine queries: the float bits of the optimum and its cost, the problem and
// OVR counts, and every Fermat-Weber work counter. Refactors of the
// optimizer drivers must reproduce these byte for byte. The file is
// amd64-only because float results may differ in the last bit on
// architectures that fuse multiply-adds.

const goldenPath = "testdata/golden_outputs.json"

// goldenRecord is one pinned outcome. Floats are stored as hex bit patterns
// so the comparison is exact.
type goldenRecord struct {
	Name         string `json:"name"`
	LocX         string `json:"loc_x"`
	LocY         string `json:"loc_y"`
	Cost         string `json:"cost"`
	Groups       int    `json:"groups"`
	OVRs         int    `json:"ovrs"`
	Problems     int    `json:"problems"`
	ExactSolves  int    `json:"exact_solves"`
	Prefiltered  int    `json:"prefiltered"`
	PrunedGroups int    `json:"pruned_groups"`
	TotalIters   int    `json:"total_iters"`
}

func bitsHex(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func recordOf(name string, res Result) goldenRecord {
	return goldenRecord{
		Name:         name,
		LocX:         bitsHex(res.Loc.X),
		LocY:         bitsHex(res.Loc.Y),
		Cost:         bitsHex(res.Cost),
		Groups:       res.Stats.Groups,
		OVRs:         res.Stats.OVRs,
		Problems:     res.Stats.Fermat.Problems,
		ExactSolves:  res.Stats.Fermat.ExactSolves,
		Prefiltered:  res.Stats.Fermat.Prefiltered,
		PrunedGroups: res.Stats.Fermat.PrunedGroups,
		TotalIters:   res.Stats.Fermat.TotalIters,
	}
}

// goldenKinds are the object-weight settings the golden sweeps: uniform
// multiplicative weights (ordinary Voronoi), non-uniform multiplicative and
// non-uniform additive object weights (weighted diagrams).
var goldenKinds = []string{"uniform", "mult", "add"}

// goldenInput builds a seeded instance with ntypes object sets.
func goldenInput(seed int64, ntypes int, kind string) Input {
	sizes := map[int]int{1: 40, 2: 24, 3: 14, 5: 6}
	r := rand.New(rand.NewSource(seed))
	sets := make([][]core.Object, ntypes)
	kinds := make([]WeightKind, ntypes)
	for ti := range sets {
		tw := 0.5 + 9.5*r.Float64()
		set := make([]core.Object, sizes[ntypes])
		for i := range set {
			ow := 1.0
			if kind != "uniform" {
				ow = 0.5 + 1.5*r.Float64()
			}
			set[i] = core.Object{
				ID:         i,
				Type:       ti,
				Loc:        geom.Pt(r.Float64()*1000, r.Float64()*1000),
				TypeWeight: tw,
				ObjWeight:  ow,
			}
		}
		sets[ti] = set
		if kind == "add" {
			kinds[ti] = AdditiveObjWeights
		}
	}
	return Input{
		Sets:                sets,
		Bounds:              testBounds,
		ObjKinds:            kinds,
		Workers:             1,
		DisableDiagramCache: true,
	}
}

// goldenRecords runs every pinned case and returns its records in a fixed
// order.
func goldenRecords(t *testing.T) []goldenRecord {
	t.Helper()
	var out []goldenRecord
	spill := t.TempDir()
	seed := int64(1)
	for _, method := range []Method{RRB, MBRB} {
		for _, ntypes := range []int{1, 2, 3, 5} {
			for _, kind := range goldenKinds {
				seed++
				for flags := 0; flags < 8; flags++ {
					in := goldenInput(seed, ntypes, kind)
					in.PruneOverlap = flags&1 != 0
					in.DisableCostBound = flags&2 != 0
					if flags&4 != 0 {
						in.SpillDir = spill
					}
					name := fmt.Sprintf("solve/%v/types=%d/%s/prune=%t/nobound=%t/spill=%t",
						method, ntypes, kind, in.PruneOverlap, in.DisableCostBound, in.SpillDir != "")
					res, err := Solve(in, method)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					out = append(out, recordOf(name, res))
				}
			}
		}
	}
	for _, method := range []Method{RRB, MBRB} {
		for _, ntypes := range []int{1, 2, 3, 5} {
			for _, kind := range goldenKinds {
				seed++
				in := goldenInput(seed, ntypes, kind)
				eng, err := NewEngine(in, method)
				if err != nil {
					t.Fatalf("engine %v/%d/%s: %v", method, ntypes, kind, err)
				}
				vecs := batchVecs(rand.New(rand.NewSource(seed)), 6, ntypes)
				for vi, tw := range vecs {
					name := fmt.Sprintf("query/%v/types=%d/%s/vec=%d", method, ntypes, kind, vi)
					res, err := eng.Query(tw)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					out = append(out, recordOf(name, res))
				}
				batch, err := eng.QueryBatch(vecs)
				if err != nil {
					t.Fatalf("batch %v/%d/%s: %v", method, ntypes, kind, err)
				}
				for vi, res := range batch {
					name := fmt.Sprintf("batch/%v/types=%d/%s/vec=%d", method, ntypes, kind, vi)
					out = append(out, recordOf(name, res))
				}
			}
		}
	}
	return out
}

// TestGoldenOutputs compares every pinned case against the committed golden.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep runs a few hundred solves")
	}
	raw, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := goldenRecords(t)
	if len(got) != len(want) {
		t.Fatalf("%d records, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("case %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
