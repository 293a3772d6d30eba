// Package sched implements list scheduling over dependence DAGs: a
// forward scheduler with an issue clock, function-unit tracking and the
// dynamic ("v") heuristics of Table 1; a backward scheduler; the two
// heuristic combinators the paper distinguishes (winnowing vs. a single
// priority value); the six published algorithms analyzed in Table 2 of
// Smotherman et al. (MICRO-24, 1991); Krishnamurthy's post-pass fixup;
// the Section 1 reservation-table scheduler (earliest-empty-slot
// placement with backfilling); cross-block latency inheritance (Carry,
// the paper's third future-work item); and a branch-and-bound optimal
// scheduler (the first future-work item) for small blocks.
package sched

import (
	"daginsched/internal/buf"
	"daginsched/internal/dag"
	"daginsched/internal/heur"
	"daginsched/internal/isa"
	"daginsched/internal/machine"
)

// Result is a schedule for one basic block.
type Result struct {
	// Order lists node indices in scheduled order.
	Order []int32
	// Issue is the issue cycle of each node, indexed by node.
	Issue []int32
	// Cycles is the completion time: max(issue + latency) over all nodes.
	Cycles int32
}

// Stalls returns the number of issue slots lost to waiting: the
// difference between the schedule's span in issue cycles and the
// minimum span the machine's issue width allows.
func (r *Result) Stalls(m *machine.Model) int32 {
	if len(r.Order) == 0 {
		return 0
	}
	last := int32(0)
	for _, c := range r.Issue {
		if c > last {
			last = c
		}
	}
	span := last + 1
	ideal := (int32(len(r.Order)) + int32(m.IssueWidth) - 1) / int32(m.IssueWidth)
	if span < ideal {
		return 0
	}
	return span - ideal
}

// State is the live scheduling state handed to selectors. It exposes
// every dynamic ("v") heuristic of Table 1.
type State struct {
	D *dag.DAG
	M *machine.Model
	A *heur.Annot

	// csr is the DAG's frozen flat-adjacency view when available (nil
	// otherwise). Every arc walk in the scheduling loop — the
	// ready-list decrement in place, the dynamic child/parent
	// heuristics — goes through succs/preds so a frozen DAG is
	// scheduled entirely over the two flat arc arrays.
	csr *dag.CSR

	time           int32   // current issue cycle
	eet            []int32 // earliest execution time per node (dynamic)
	unschedParents []int32
	unschedKids    []int32
	scheduled      []bool
	issue          []int32
	order          []int32
	last           int32 // most recently scheduled node, -1 initially

	usedSlots  int         // instructions issued in the current cycle
	usedGroups int         // bitmask of issue groups used this cycle
	unitBusy   []([]int32) // per class: busy-until time of each unit

	// Selection memos. memoGen is a generation counter bumped whenever
	// the clock advances or a function unit is occupied — the only two
	// events (besides a child's EET rising) that can change what
	// unitFree or EffectiveEET return. A cached value is live iff its
	// stamp equals memoGen, so invalidation is one integer increment
	// instead of a sweep. Stamps start at 0 against a memoGen of 1, so a
	// reset invalidates everything without clearing.
	memoGen  int32
	effMemo  []int32 // cached EffectiveEET per node
	effStamp []int32 // generation the cache entry was filled at
	ufFree   []int32 // per class: cached earliest-free cycle
	ufIdx    []int32 // per class: cached free-unit index
	ufStamp  []int32 // per class: generation of the cached pair
}

func newState(d *dag.DAG, m *machine.Model, a *heur.Annot) *State {
	s := &State{}
	s.reset(d, m, a)
	return s
}

// reset readies s for a fresh scheduling pass over d, recycling every
// slice's capacity. A per-worker State reset per block is what keeps
// the batch engine's steady-state scheduling path allocation-free.
func (s *State) reset(d *dag.DAG, m *machine.Model, a *heur.Annot) {
	n := d.Len()
	s.D, s.M, s.A = d, m, a
	s.csr = d.FrozenCSR()
	s.eet = buf.Int32(s.eet, n)
	s.unschedParents = buf.Int32(s.unschedParents, n)
	s.unschedKids = buf.Int32(s.unschedKids, n)
	s.scheduled = buf.Bool(s.scheduled, n)
	s.issue = buf.Int32(s.issue, n)
	if cap(s.order) < n {
		s.order = make([]int32, 0, n)
	} else {
		s.order = s.order[:0]
	}
	s.last = -1
	s.time, s.usedSlots, s.usedGroups = 0, 0, 0
	s.memoGen = 1
	s.effMemo = buf.Int32(s.effMemo, n)
	s.effStamp = buf.Int32(s.effStamp, n)
	s.ufFree = buf.Int32(s.ufFree, isa.NumClasses)
	s.ufIdx = buf.Int32(s.ufIdx, isa.NumClasses)
	s.ufStamp = buf.Int32(s.ufStamp, isa.NumClasses)
	if c := s.csr; c != nil {
		for i := int32(0); i < int32(n); i++ {
			s.unschedParents[i] = c.NumPreds(i)
			s.unschedKids[i] = c.NumSuccs(i)
			s.issue[i] = -1
		}
	} else {
		for i := 0; i < n; i++ {
			s.unschedParents[i] = int32(len(d.Nodes[i].Preds))
			s.unschedKids[i] = int32(len(d.Nodes[i].Succs))
			s.issue[i] = -1
		}
	}
	if cap(s.unitBusy) < isa.NumClasses {
		s.unitBusy = make([][]int32, isa.NumClasses)
	}
	for c := 0; c < isa.NumClasses; c++ {
		if k := m.Units[c]; k > 0 {
			s.unitBusy[c] = buf.Int32(s.unitBusy[c], k)
		} else {
			s.unitBusy[c] = s.unitBusy[c][:0]
		}
	}
}

// succs returns node i's successor arcs, from the flat CSR view when
// the DAG is frozen (identical order either way).
func (s *State) succs(i int32) []dag.Arc {
	if s.csr != nil {
		return s.csr.Succs(i)
	}
	return s.D.Nodes[i].Succs
}

// preds returns node i's predecessor arcs, from the flat CSR view when
// the DAG is frozen (identical order either way).
func (s *State) preds(i int32) []dag.Arc {
	if s.csr != nil {
		return s.csr.Preds(i)
	}
	return s.D.Nodes[i].Preds
}

// Time returns the current issue cycle.
func (s *State) Time() int32 { return s.time }

// Last returns the most recently scheduled node, or -1.
func (s *State) Last() int32 { return s.last }

// EET returns a node's earliest execution time, the dynamic heuristic
// maintained as parents are scheduled: "when an instruction is chosen
// each child has its earliest execution time updated by taking the
// maximum of the previous value and the current time plus the arc delay
// from the scheduled node".
func (s *State) EET(i int32) int32 { return s.eet[i] }

// unitFree returns the earliest cycle at which a function unit for
// class c is available, and the index of that unit. Classes with no
// unit limit are always free. The linear unit scan is memoized per
// class per generation: unit busy-until times only change when place
// occupies a unit (which bumps memoGen), so between occupations every
// selector probe of the same class is a stamp compare and two loads.
//
//sched:noalloc
func (s *State) unitFree(c isa.Class) (int32, int) {
	units := s.unitBusy[c]
	if len(units) == 0 {
		return 0, -1
	}
	if s.ufStamp[c] == s.memoGen {
		return s.ufFree[c], int(s.ufIdx[c])
	}
	best, bi := units[0], 0
	for i, t := range units[1:] {
		if t < best {
			best, bi = t, i+1
		}
	}
	s.ufFree[c], s.ufIdx[c], s.ufStamp[c] = best, int32(bi), s.memoGen
	return best, bi
}

// EffectiveEET is EET extended with structural hazards: the candidate
// also waits for a free function unit ("if the function units are not
// pipelined, then structural hazards can be considered by performing a
// maximum earliest starting time calculation that includes the finish
// times of any required function units").
//
// The result is memoized under the dirty-set rule: a cached entry
// survives until the generation bumps (clock advance or unit
// occupation) or the node's own EET rises because a parent was placed
// (place zeroes that node's stamp). Winnowing selectors evaluate this
// key twice per candidate per pick — once scanning for the best value,
// once filtering — so even within a single pick the memo halves the
// work.
//
//sched:noalloc
func (s *State) EffectiveEET(i int32) int32 {
	if s.effStamp[i] == s.memoGen {
		return s.effMemo[i]
	}
	t := s.eet[i]
	if free, _ := s.unitFree(s.D.Nodes[i].Inst.Class()); free > t {
		t = free
	}
	s.effMemo[i], s.effStamp[i] = t, s.memoGen
	return t
}

// InterlocksWithPrev is the Table 1 "interlock with previous
// instruction" predicate: the candidate has a dependence arc from the
// most recently scheduled node with a delay that blocks back-to-back
// issue.
func (s *State) InterlocksWithPrev(i int32) bool {
	if s.last < 0 {
		return false
	}
	for _, arc := range s.preds(i) {
		if arc.From == s.last && s.issue[s.last]+arc.Delay > s.time+1 {
			return true
		}
	}
	return false
}

// NumSingleParentChildren counts children whose only unscheduled parent
// is the candidate (Table 1's #single-parent children, computed with
// the #unscheduled_parents counters exactly as the paper's pseudocode
// does).
func (s *State) NumSingleParentChildren(i int32) int32 {
	var n int32
	for _, arc := range s.succs(i) {
		if s.unschedParents[arc.To] == 1 {
			n++
		}
	}
	return n
}

// SumDelaysToSingleParentChildren weights the single-parent children by
// their arc delays.
func (s *State) SumDelaysToSingleParentChildren(i int32) int32 {
	var n int32
	for _, arc := range s.succs(i) {
		if s.unschedParents[arc.To] == 1 {
			n += arc.Delay
		}
	}
	return n
}

// NumUncoveredChildren counts children that would join the candidate
// list immediately if i were scheduled: single-parent children at arc
// delay 1 ("the first if condition is extended to also require that the
// delay to the child be equal to one").
func (s *State) NumUncoveredChildren(i int32) int32 {
	var n int32
	for _, arc := range s.succs(i) {
		if s.unschedParents[arc.To] == 1 && arc.Delay == 1 {
			n++
		}
	}
	return n
}

// IsBirthing reports whether candidate i is an RAW parent of the most
// recently scheduled node — Tiemann's backward-pass "birthing
// instruction" adjustment, which shortens the lifetime of the
// corresponding live register.
func (s *State) IsBirthing(i int32) bool {
	if s.last < 0 {
		return false
	}
	for _, arc := range s.succs(i) {
		if arc.To == s.last && arc.Kind == dag.RAW {
			return true
		}
	}
	return false
}

// AlternatesType reports whether candidate i belongs to a different
// superscalar issue group than the most recently scheduled instruction.
func (s *State) AlternatesType(i int32) bool {
	if s.last < 0 {
		return true
	}
	return machine.IssueGroup(s.D.Nodes[i].Inst.Class()) !=
		machine.IssueGroup(s.D.Nodes[s.last].Inst.Class())
}

// FPUBusyPenalty returns how many cycles candidate i would wait for its
// (non-pipelined) function unit beyond the current time.
func (s *State) FPUBusyPenalty(i int32) int32 {
	free, _ := s.unitFree(s.D.Nodes[i].Inst.Class())
	if free <= s.time {
		return 0
	}
	return free - s.time
}
