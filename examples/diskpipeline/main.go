// Diskpipeline: the out-of-core evaluation path (the paper's Sec 8
// "disk-based techniques" future work). With Input.SpillDir set, the final
// overlap streams its OVRs straight to a spill file — the output, which can
// dwarf both inputs, never lives in memory — and the optimal location is
// then answered by streaming the file back through the cost-bound solver.
// The in-memory pipeline runs alongside to confirm the answers match; the
// program exits non-zero when they do not.
//
// Run with: go run ./examples/diskpipeline
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"molq"
	"molq/internal/core"
	"molq/internal/query"
)

func objects(name string, n int, ti int, seed int64, bounds molq.Rect) []core.Object {
	pts := molq.GeneratePOIs(name, n, seed, bounds)
	objs := make([]core.Object, len(pts))
	for i, p := range pts {
		objs[i] = core.Object{ID: i, Type: ti, Loc: p, TypeWeight: float64(ti + 1), ObjWeight: 1}
	}
	return objs
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	bounds := molq.DefaultBounds()
	const perType = 3000
	sets := [][]core.Object{
		objects("STM", perType, 0, 1, bounds),
		objects("CH", perType, 1, 2, bounds),
	}

	dir, err := os.MkdirTemp("", "molq-spill")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	disk, err := query.Solve(query.Input{Sets: sets, Bounds: bounds, Epsilon: 1e-6, SpillDir: dir}, query.RRB)
	if err != nil {
		return err
	}
	fmt.Printf("spilled %d OVRs (%d candidate pairs) to %s\n",
		disk.Stats.OVRs, disk.Stats.Overlap.CandidatePairs, dir)
	fmt.Printf("disk pipeline optimum: (%.2f, %.2f) cost %.4f — %d FW problems, %d prefiltered, %d pruned\n",
		disk.Loc.X, disk.Loc.Y, disk.Cost,
		disk.Stats.Fermat.Problems, disk.Stats.Fermat.Prefiltered, disk.Stats.Fermat.PrunedGroups)

	mem, err := query.Solve(query.Input{Sets: sets, Bounds: bounds, Epsilon: 1e-6}, query.RRB)
	if err != nil {
		return err
	}
	fmt.Printf("in-memory optimum:     (%.2f, %.2f) cost %.4f\n", mem.Loc.X, mem.Loc.Y, mem.Cost)
	if math.Abs(mem.Cost-disk.Cost) >= 1e-6*mem.Cost {
		return fmt.Errorf("pipelines disagree: disk cost %v, in-memory cost %v", disk.Cost, mem.Cost)
	}
	fmt.Println("→ disk and in-memory pipelines agree")
	return nil
}
