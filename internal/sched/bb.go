package sched

import (
	"daginsched/internal/dag"
	"daginsched/internal/heur"
	"daginsched/internal/machine"
)

// MaxBranchAndBound is the largest block the optimal scheduler accepts;
// the state space is exponential, which is why the paper proposes
// branch-and-bound only "for small basic blocks" (Section 7).
const MaxBranchAndBound = 24

// BranchAndBound finds a makespan-optimal schedule for a small block by
// depth-first search over issue orders with two prunings: a
// critical-path lower bound (max delay to a leaf, the Table 1
// heuristic, reused here as an admissible estimate) and dominance
// memoization on (scheduled-set, completion state). It implements the
// paper's future-work item "determining if an optimal branch-and-bound
// scheduler would benefit performance for small basic blocks".
//
// The incumbent is seeded with the Krishnamurthy list schedule, so the
// search never returns anything worse than the heuristic result. It
// panics if the block exceeds MaxBranchAndBound instructions.
func BranchAndBound(d *dag.DAG, m *machine.Model) *Result {
	n := d.Len()
	if n > MaxBranchAndBound {
		panic("sched: block too large for branch and bound")
	}
	if n == 0 {
		return &Result{}
	}
	a := heur.New(d, m)
	a.ComputeBackward()
	a.ComputeLocal()

	// cpl[i] is the remaining critical-path length once i issues: its
	// own latency, or an arc delay plus a child's remaining path if that
	// is longer. An admissible completion bound for any state.
	cpl := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		cpl[i] = a.ExecTime[i]
		for _, arc := range d.Nodes[i].Succs {
			if v := arc.Delay + cpl[arc.To]; v > cpl[i] {
				cpl[i] = v
			}
		}
	}

	// Incumbent: the Krishnamurthy heuristic schedule.
	inc := Krishnamurthy().Run(d, m)
	bb := &bbSearch{
		d: d, m: m, a: a, cpl: cpl,
		bestCycles: inc.Cycles,
		bestOrder:  append([]int32(nil), inc.Order...),
		seen:       make(map[uint64]bool),
		pinned:     ctiTail(d),
	}
	s := newState(d, m, a)
	bb.search(s, 0)
	return Timed(d, m, bb.bestOrder)
}

type bbSearch struct {
	d          *dag.DAG
	m          *machine.Model
	a          *heur.Annot
	cpl        []int32 // remaining critical-path length per node
	bestCycles int32
	bestOrder  []int32
	seen       map[uint64]bool // fully-explored timing states
	pinned     int32           // the block-ending CTI; n when there is none
}

// search extends the partial schedule in s; depth is the number of
// nodes already placed.
func (b *bbSearch) search(s *State, depth int32) {
	n := int32(b.d.Len())
	if depth == n {
		r := s.result()
		if r.Cycles < b.bestCycles {
			b.bestCycles = r.Cycles
			b.bestOrder = append(b.bestOrder[:0], s.order...)
		}
		return
	}
	// Lower bound: every unscheduled node must still run its critical
	// path to a leaf after it becomes executable.
	lb := int32(0)
	for i := int32(0); i < n; i++ {
		if s.scheduled[i] {
			if v := s.issue[i] + b.a.ExecTime[i]; v > lb {
				lb = v
			}
			continue
		}
		if v := s.eet[i] + b.cpl[i]; v > lb {
			lb = v
		}
	}
	if lb >= b.bestCycles {
		return
	}
	// Duplicate-state detection: permutations of independent picks often
	// reach the same timing state; a state explored once never needs a
	// second visit (the first visit already found the best completion
	// reachable below the then-current — hence also the current —
	// incumbent).
	key := s.stateKey()
	if b.seen[key] {
		return
	}
	b.seen[key] = true

	for i := int32(0); i < n; i++ {
		if s.scheduled[i] || s.unschedParents[i] != 0 {
			continue
		}
		if i == b.pinned && depth != n-1 {
			continue // the block-ending CTI stays last
		}
		saved := s.snapshot()
		s.place(i)
		b.search(s, depth+1)
		s.restore(saved)
	}
}

// stateKey hashes the complete timing state (FNV-1a): scheduled set,
// clock, issue-slot usage, the EETs of unscheduled nodes, and
// function-unit busy times. Identical keys mean identical subtrees.
func (s *State) stateKey() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		h = (h ^ v) * prime
	}
	mix(uint64(s.time))
	mix(uint64(s.usedSlots)<<32 | uint64(uint32(s.usedGroups)))
	// The partial completion (latest finish among scheduled nodes) is
	// part of the state: the best total through a state is
	// max(partial, best remaining), so two states only share a subtree
	// outcome when both halves match.
	var partial int32
	for i := range s.scheduled {
		if s.scheduled[i] {
			mix(uint64(i)<<1 | 1)
			if fin := s.issue[i] + int32(s.M.Latency(s.D.Nodes[i].Inst.Op)); fin > partial {
				partial = fin
			}
		} else {
			mix(uint64(s.eet[i]) << 1)
		}
	}
	mix(uint64(partial))
	for _, units := range s.unitBusy {
		for _, t := range units {
			mix(uint64(t) + 0x9e3779b9)
		}
	}
	return h
}

// snapshot captures the mutable scheduling state for backtracking.
type bbSnap struct {
	time       int32
	usedSlots  int
	usedGroups int
	last       int32
	orderLen   int
	eet        []int32
	parents    []int32
	units      [][]int32
}

func (s *State) snapshot() *bbSnap {
	sn := &bbSnap{
		time: s.time, usedSlots: s.usedSlots, usedGroups: s.usedGroups,
		last: s.last, orderLen: len(s.order),
		eet:     append([]int32(nil), s.eet...),
		parents: append([]int32(nil), s.unschedParents...),
	}
	for _, u := range s.unitBusy {
		if u == nil {
			sn.units = append(sn.units, nil)
		} else {
			sn.units = append(sn.units, append([]int32(nil), u...))
		}
	}
	return sn
}

func (s *State) restore(sn *bbSnap) {
	for _, node := range s.order[sn.orderLen:] {
		s.scheduled[node] = false
		s.issue[node] = -1
	}
	s.order = s.order[:sn.orderLen]
	s.time, s.usedSlots, s.usedGroups = sn.time, sn.usedSlots, sn.usedGroups
	s.last = sn.last
	copy(s.eet, sn.eet)
	copy(s.unschedParents, sn.parents)
	for c, u := range sn.units {
		if u != nil {
			copy(s.unitBusy[c], u)
		}
	}
}
