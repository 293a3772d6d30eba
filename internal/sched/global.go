package sched

import (
	"daginsched/internal/dag"
	"daginsched/internal/heur"
	"daginsched/internal/isa"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
)

// Carry is the global scheduling information of the paper's third
// future-work item: "operation latencies inherited from immediately
// preceding blocks". Section 2 describes the mechanism as pseudo-nodes
// and arcs; here the same constraint is carried as per-register ready
// times, expressed in cycles after the successor block's first issue
// slot. Only the fixed register resources transfer — memory-expression
// IDs are per-block — which matches what dominates cross-block stalls
// (a load or divide issued just before a branch).
type Carry struct {
	// Ready[r] is the earliest cycle (relative to the next block's
	// cycle 0) at which register resource r's value is available.
	Ready [resource.NumFixed]int32
	// Busy[c] is the remaining busy time of class c's function units,
	// for non-pipelined units straddling the block boundary.
	Busy [isa.NumClasses]int32
}

// CarryOut derives the carry from a scheduled block: for every register
// defined in the block, how far past the block's last issue cycle its
// value lands, and how long each bounded function unit stays busy.
func CarryOut(d *dag.DAG, m *machine.Model, r *Result) *Carry {
	c := &Carry{}
	if len(r.Order) == 0 {
		return c
	}
	var lastIssue int32
	for _, t := range r.Issue {
		if t > lastIssue {
			lastIssue = t
		}
	}
	base := lastIssue + 1 // the successor block's cycle 0
	var defs []isa.ResRef
	for i := range d.Nodes {
		in := d.Nodes[i].Inst
		defs = in.AppendDefs(defs[:0])
		for _, def := range defs {
			if def.Kind == isa.RMem {
				continue
			}
			lat := int32(m.Latency(in.Op))
			if def.PairSecond {
				lat += int32(m.PairSkew)
			}
			if ready := r.Issue[i] + lat - base; ready > c.Ready[def.Reg] {
				c.Ready[def.Reg] = ready
			}
		}
		if cls := in.Class(); m.Units[cls] > 0 {
			if busy := r.Issue[i] + int32(m.UnitBusy(in.Op)) - base; busy > c.Busy[cls] {
				c.Busy[cls] = busy
			}
		}
	}
	return c
}

// applyCarry seeds a fresh scheduling state with inherited latencies:
// every node consuming (or overwriting) a carried register cannot issue
// before its value arrives, and busy function units stay occupied.
func applyCarry(s *State, carry *Carry) {
	if carry == nil {
		return
	}
	var refs []isa.ResRef
	for i := range s.D.Nodes {
		in := s.D.Nodes[i].Inst
		lb := int32(0)
		refs = in.AppendUses(refs[:0])
		refs = in.AppendDefs(refs)
		for _, ref := range refs {
			if ref.Kind != isa.RMem && carry.Ready[ref.Reg] > lb {
				lb = carry.Ready[ref.Reg]
			}
		}
		if lb > s.eet[i] {
			s.eet[i] = lb
		}
	}
	for c := 0; c < isa.NumClasses; c++ {
		for u := range s.unitBusy[c] {
			if carry.Busy[c] > s.unitBusy[c][u] {
				s.unitBusy[c][u] = carry.Busy[c]
			}
		}
	}
}

// ForwardWithCarry is Forward extended with inherited latencies: the
// purely local scheduler would happily issue a dependent instruction in
// the first cycle of a block even though the previous block's divide is
// still in flight; the carry makes that cost visible so the selector
// can cover it.
func ForwardWithCarry(d *dag.DAG, m *machine.Model, a *heur.Annot, sel Selector, carry *Carry) *Result {
	s := newState(d, m, a)
	applyCarry(s, carry)
	forwardLoop(s, sel, pinnedTail(d), make([]int32, 0, 16), nil)
	return s.result()
}

// Join merges carries from multiple control-flow predecessors: each
// register's ready time is the maximum over the incoming carries (the
// conservative answer when the runtime path is unknown). A nil operand
// represents a predecessor with no information and joins as all-zero.
func Join(cs ...*Carry) *Carry {
	out := &Carry{}
	for _, c := range cs {
		if c == nil {
			continue
		}
		for r, v := range c.Ready {
			if v > out.Ready[r] {
				out.Ready[r] = v
			}
		}
		for k, v := range c.Busy {
			if v > out.Busy[k] {
				out.Busy[k] = v
			}
		}
	}
	return out
}

// RunWithCarry runs the algorithm with inherited latencies seeded into
// the initial earliest-execution-times. Only forward sequential
// algorithms can exploit the carry; backward and time-indexed ones fall
// back to Run (their published formulations have no entry point for
// it), which is safe because carries affect schedule quality only.
func (al *Algorithm) RunWithCarry(d *dag.DAG, m *machine.Model, carry *Carry) *Result {
	if al.SchedDir != dag.Forward || al.TimeIndexed {
		return al.Run(d, m)
	}
	a := heur.New(d, m)
	prepareAnnot(a, al.Ranked)
	r := ForwardWithCarry(d, m, a, al.Selector(), carry)
	if al.Postpass {
		r = Fixup(d, m, r)
	}
	return r
}

// ScheduleChain schedules a sequence of blocks with (global=true) or
// without (global=false) latency inheritance, threading each block's
// carry into the next, and returns the per-block results. The selector
// runs with earliest-execution-time at rank 1, the configuration where
// inherited latencies pay off.
func ScheduleChain(dags []*dag.DAG, m *machine.Model, global bool) []*Result {
	sel := Priority([]RankedKey{
		{Key: heur.EarliestExecTime, Min: true},
		{Key: heur.MaxDelayToLeaf},
	})
	out := make([]*Result, len(dags))
	var carry *Carry
	for i, d := range dags {
		a := heur.New(d, m)
		a.ComputeBackward()
		if global {
			out[i] = ForwardWithCarry(d, m, a, sel, carry)
			carry = CarryOut(d, m, out[i])
		} else {
			out[i] = Forward(d, m, a, sel)
		}
	}
	return out
}
