package sched

import (
	"daginsched/internal/dag"
	"daginsched/internal/machine"
)

// Fixup is the post-pass delay-slot filler Table 2 lists for
// Krishnamurthy: "a postpass 'fixup' to try to fill more operation
// delay slots than are filled by the heuristic scheduling pass." It
// scans the scheduled order; when instruction k stalls (issues later
// than one cycle after its predecessor), it searches later instructions
// for one that (a) does not depend on anything between the stall point
// and itself and (b) can issue in the idle slot, and hoists it. The
// pass repeats until no move helps; it never worsens the schedule.
func Fixup(d *dag.DAG, m *machine.Model, r *Result) *Result {
	order := append([]int32(nil), r.Order...)
	best := Timed(d, m, order)
	n := len(order)
	pinned := ctiTail(d) // a block-ending CTI never hoists; n when there is none
	for improved := true; improved; {
		improved = false
		pos := make([]int32, d.Len())
		for p, node := range order {
			pos[node] = int32(p)
		}
		for k := 1; k < n; k++ {
			gap := best.Issue[order[k]] - best.Issue[order[k-1]]
			if gap <= 1 {
				continue // no stall before position k
			}
			// Look for a later instruction that can hoist to position k.
			for j := k + 1; j < n; j++ {
				cand := order[j]
				if cand == pinned || dependsOnRange(d, pos, cand, int32(k), int32(j)) {
					continue
				}
				trial := hoist(order, j, k)
				tr := Timed(d, m, trial)
				if tr.Cycles < best.Cycles {
					order, best = trial, tr
					improved = true
					break
				}
			}
			if improved {
				break
			}
		}
	}
	return best
}

// dependsOnRange reports whether cand has a DAG parent scheduled in
// positions [from, to) of the current order.
func dependsOnRange(d *dag.DAG, pos []int32, cand, from, to int32) bool {
	c := d.Freeze()
	lo, hi := c.PredSpan(cand)
	for _, arc := range c.PackedPredArcs()[lo:hi] {
		if p := pos[arc.Node()]; p >= from && p < to {
			return true
		}
	}
	return false
}

// hoist returns a copy of order with the element at position j moved to
// position k (k < j), shifting the slice between them right.
func hoist(order []int32, j, k int) []int32 {
	out := append([]int32(nil), order...)
	v := out[j]
	copy(out[k+1:j+1], out[k:j])
	out[k] = v
	return out
}
