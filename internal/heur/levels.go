package heur

import "daginsched/internal/dag"

// LevelLists is the Section 4 "level algorithm" data structure: "For
// forward DAG construction, root nodes are assigned a level of 0; other
// nodes are assigned the value one plus the maximum level of any
// parent. A linked list is maintained for each level."
//
// The paper's conclusion 4 finds this "no better for calculation of
// remaining static heuristics than a reverse walk of a linked list of
// the instructions"; BenchmarkIntermediatePass quantifies that claim by
// running Annot.ComputeBackward (reverse walk) against
// Annot.ComputeBackwardLevelLists.
type LevelLists struct {
	Level []int32   // level of each node
	Lists [][]int32 // node indices per level
	Max   int32     // maximum level
}

// BuildLevels computes levels with one forward pass and buckets nodes
// into per-level lists. Each node pushes its level along its child
// arcs; parents precede children in program order, so a node's level
// is final when the pass reaches it.
func BuildLevels(d *dag.DAG) *LevelLists {
	n := d.Len()
	ll := &LevelLists{Level: make([]int32, n)}
	for i := 0; i < n; i++ {
		lvl := ll.Level[i]
		for _, arc := range d.Nodes[i].Succs {
			if lvl+1 > ll.Level[arc.To] {
				ll.Level[arc.To] = lvl + 1
			}
		}
		for int32(len(ll.Lists)) <= lvl {
			ll.Lists = append(ll.Lists, nil)
		}
		ll.Lists[lvl] = append(ll.Lists[lvl], int32(i))
		if lvl > ll.Max {
			ll.Max = lvl
		}
	}
	return ll
}

// ComputeBackwardLevelLists fills the to-leaf heuristics with the level
// algorithm: an outer loop from the maximum level to the minimum, an
// inner loop over each node on that level, and an innermost loop over
// each child. "Thus a parent can examine all its children and know that
// all descendants have been processed." Results are identical to
// ComputeBackward.
func (a *Annot) ComputeBackwardLevelLists() {
	n := a.D.Len()
	a.MaxPathToLeaf = make([]int32, n)
	a.MaxDelayToLeaf = make([]int32, n)
	ll := BuildLevels(a.D)
	for lvl := ll.Max; lvl >= 0; lvl-- {
		for _, i := range ll.Lists[lvl] {
			a.backwardNode(i)
		}
	}
}
