package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSortEventsTotalOrder checks the radix event sort against the sweep's
// total order (y descending, then kind, side, idx) on inputs dense in exact
// ties, signed zeros, infinities and negative coordinates.
func TestSortEventsTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ys := []float64{0, math.Copysign(0, -1), 1, -1, 2.5, -2.5, 1e300, -1e-300, math.Inf(1), math.Inf(-1)}
	var sc sweepScratch
	for round := 0; round < 200; round++ {
		n := r.Intn(300)
		var events []event
		for kind := range uint8(2) {
			for side := range uint8(2) {
				for i := range int32(n) {
					y := ys[r.Intn(len(ys))]
					if r.Intn(2) == 0 {
						y = r.NormFloat64() * 1e3
					}
					events = append(events, event{y: y, kind: kind, side: side, idx: i})
				}
			}
		}
		want := slices.Clone(events)
		slices.SortFunc(want, func(ei, ej event) int {
			switch {
			case ei.y > ej.y:
				return -1
			case ei.y < ej.y:
				return 1
			}
			if ei.kind != ej.kind {
				return int(ei.kind) - int(ej.kind)
			}
			if ei.side != ej.side {
				return int(ei.side) - int(ej.side)
			}
			return int(ei.idx) - int(ej.idx)
		})
		got := sc.sortEvents(events)
		for i := range want {
			if got[i].kind != want[i].kind || got[i].side != want[i].side || got[i].idx != want[i].idx {
				t.Fatalf("round %d: position %d: got %+v, want %+v", round, i, got[i], want[i])
			}
		}
	}
}
