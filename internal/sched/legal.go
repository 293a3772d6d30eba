package sched

import "daginsched/internal/dag"

// The schedule oracles read the DAG's Succs lists, not the frozen CSR
// view the scheduler walks, so a fault in packing, in the transpose
// that derives the predecessor half, or in the packed walks cannot
// hide from them.

// Legal reports whether a schedule respects every DAG arc's ordering
// (parents before children in Order) and covers each node exactly once.
func Legal(d *dag.DAG, r *Result) bool {
	if len(r.Order) != d.Len() {
		return false
	}
	pos := make([]int32, d.Len())
	seen := make([]bool, d.Len())
	for p, node := range r.Order {
		if node < 0 || int(node) >= d.Len() || seen[node] {
			return false
		}
		seen[node] = true
		pos[node] = int32(p)
	}
	for i := range d.Nodes {
		for _, arc := range d.Nodes[i].Succs {
			if pos[arc.From] >= pos[arc.To] {
				return false
			}
		}
	}
	return true
}

// CTILast reports whether the block-ending CTI (if any) stays last.
func CTILast(d *dag.DAG, r *Result) bool {
	n := d.Len()
	if n == 0 || !d.Nodes[n-1].Inst.Op.IsCTI() {
		return true
	}
	return len(r.Order) == n && r.Order[n-1] == int32(n-1)
}
