//go:build amd64

package fermat

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"molq/internal/geom"
)

// The Streamer golden pins the exact output of every NewStreamerVariant
// setting — no pruning, the pair prefilter alone, the in-iteration
// bound alone, and both — over seeded batches of 1–6-point groups (with
// collinear and coincident groups and one empty group), with and without
// offsets. Each record holds the winner's location and cost bits, its group
// index and every BatchStats counter, so a refactor of the streaming
// optimizer must reproduce its decisions and its work, not just its answer.
// The file is amd64-only because float results may differ in the last bit
// on architectures that fuse multiply-adds.

const streamGoldenPath = "testdata/streamer_golden.json"

// streamRecord is one pinned Streamer outcome.
type streamRecord struct {
	Name         string `json:"name"`
	LocX         string `json:"loc_x"`
	LocY         string `json:"loc_y"`
	Cost         string `json:"cost"`
	GroupIndex   int    `json:"group_index"`
	Problems     int    `json:"problems"`
	ExactSolves  int    `json:"exact_solves"`
	Prefiltered  int    `json:"prefiltered"`
	PrunedGroups int    `json:"pruned_groups"`
	TotalIters   int    `json:"total_iters"`
}

// goldenGroups draws a batch of n groups of 1–6 points in [0,100]². About
// one group in six is collinear (points on a random line, or all coincident
// when the line degenerates) and group n/2 is empty.
func goldenGroups(r *rand.Rand, n int, withOffsets bool) ([]Group, []float64) {
	groups := make([]Group, n)
	var offsets []float64
	if withOffsets {
		offsets = make([]float64, n)
	}
	for gi := range groups {
		if withOffsets {
			offsets[gi] = r.Float64() * 5
		}
		if gi == n/2 {
			continue
		}
		g := make(Group, 1+r.Intn(6))
		switch r.Intn(6) {
		case 0:
			o := geom.Pt(r.Float64()*100, r.Float64()*100)
			dir := geom.Pt(r.Float64()-0.5, r.Float64()-0.5)
			if r.Intn(4) == 0 {
				dir = geom.Point{}
			}
			for k := range g {
				g[k] = WeightedPoint{P: o.Add(dir.Scale(r.Float64() * 80)), W: 0.1 + r.Float64()*3}
			}
		default:
			for k := range g {
				g[k] = WeightedPoint{P: geom.Pt(r.Float64()*100, r.Float64()*100), W: 0.1 + r.Float64()*3}
			}
		}
		groups[gi] = g
	}
	return groups, offsets
}

func bitsHex(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

// streamGoldenRecords runs every case: six seeded batches, offsets off and
// on, two option sets and the four variants.
func streamGoldenRecords(t *testing.T) []streamRecord {
	t.Helper()
	opts := []struct {
		name string
		opt  Options
	}{
		{"default", Options{}},
		{"eps1e-6-accel1.25", Options{Epsilon: 1e-6, Acceleration: 1.25}},
	}
	var out []streamRecord
	for seed := int64(1); seed <= 6; seed++ {
		for _, withOffsets := range []bool{false, true} {
			groups, offsets := goldenGroups(rand.New(rand.NewSource(seed)), 40, withOffsets)
			for _, o := range opts {
				for _, prefilter := range []bool{false, true} {
					for _, iterBound := range []bool{false, true} {
						name := fmt.Sprintf("seed=%d/offsets=%t/%s/prefilter=%t/iterbound=%t",
							seed, withOffsets, o.name, prefilter, iterBound)
						s := NewStreamerVariant(o.opt, prefilter, iterBound)
						for gi, g := range groups {
							off := 0.0
							if offsets != nil {
								off = offsets[gi]
							}
							if err := s.Offer(g, off); err != nil {
								t.Fatalf("%s: group %d: %v", name, gi, err)
							}
						}
						res, err := s.Result()
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						out = append(out, streamRecord{
							Name:         name,
							LocX:         bitsHex(res.Loc.X),
							LocY:         bitsHex(res.Loc.Y),
							Cost:         bitsHex(res.Cost),
							GroupIndex:   res.GroupIndex,
							Problems:     res.Stats.Problems,
							ExactSolves:  res.Stats.ExactSolves,
							Prefiltered:  res.Stats.Prefiltered,
							PrunedGroups: res.Stats.PrunedGroups,
							TotalIters:   res.Stats.TotalIters,
						})
					}
				}
			}
		}
	}
	return out
}

// TestStreamerGolden compares every case against the committed golden.
func TestStreamerGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(streamGoldenPath))
	if err != nil {
		t.Fatal(err)
	}
	var want []streamRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := streamGoldenRecords(t)
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			gj, _ := json.Marshal(got[i])
			wj, _ := json.Marshal(want[i])
			t.Errorf("case %d:\n got %s\nwant %s", i, gj, wj)
		}
	}
}
