package sched

import (
	"daginsched/internal/dag"
	"daginsched/internal/heur"
	"daginsched/internal/isa"
	"daginsched/internal/machine"
)

// ReservationTable is the explicit busy-cycle table of Section 1's
// "more refined form of scheduling": one row per function unit, one
// column per cycle, growable in time.
type ReservationTable struct {
	m *machine.Model
	// busy[class][unit] is a growable bit-vector over cycles.
	busy [isa.NumClasses][][]bool
}

// NewReservationTable returns an empty table for machine m.
func NewReservationTable(m *machine.Model) *ReservationTable {
	rt := &ReservationTable{m: m}
	for c := 0; c < isa.NumClasses; c++ {
		rt.busy[c] = make([][]bool, m.ResvUnits(isa.Class(c)))
	}
	return rt
}

// place marks pattern's cycles busy at time t.
func (rt *ReservationTable) place(pattern []machine.StageUse, unitPick []int, t int) {
	for si, st := range pattern {
		row := rt.busy[st.Unit][unitPick[si]]
		end := t + st.Start + st.Len
		for len(row) < end {
			row = append(row, false)
		}
		for k := 0; k < st.Len; k++ {
			row[t+st.Start+k] = true
		}
		rt.busy[st.Unit][unitPick[si]] = row
	}
}

// TryPlace finds the earliest cycle >= from where op's pattern fits
// (trying each unit combination greedily per stage), places it, and
// returns the chosen cycle.
func (rt *ReservationTable) TryPlace(op isa.Opcode, from int) int {
	pattern := rt.m.Pattern(op)
	pick := make([]int, len(pattern))
	for t := from; ; t++ {
		if rt.pickUnits(pattern, pick, t, 0) {
			rt.place(pattern, pick, t)
			return t
		}
	}
}

// pickUnits searches unit assignments for every stage at cycle t.
// Pattern lengths are tiny (1–2 stages), so the recursion is shallow.
func (rt *ReservationTable) pickUnits(pattern []machine.StageUse, pick []int, t, si int) bool {
	if si == len(pattern) {
		return true
	}
	st := pattern[si]
	for u := range rt.busy[st.Unit] {
		pick[si] = u
		// Check only this stage here; earlier stages already verified.
		row := rt.busy[st.Unit][u]
		ok := true
		for k := 0; k < st.Len; k++ {
			cyc := t + st.Start + k
			if cyc < len(row) && row[cyc] {
				ok = false
				break
			}
		}
		if ok && rt.pickUnits(pattern, pick, t, si+1) {
			return true
		}
	}
	return false
}

// Reservation schedules a DAG with the reservation-table method: the
// candidate list is ranked by the given selector ("always inserts the
// 'highest priority' instruction"), and the chosen instruction goes
// into "the earliest empty slots of the table" at or after its
// dependence-ready time. Placement times need not be monotone — later
// picks may backfill earlier empty slots — so the resulting Order is
// the placement-time sort, suitable for a VLIW/microcode-style target.
func Reservation(d *dag.DAG, m *machine.Model, a *heur.Annot, sel Selector) *Result {
	n, tail := int32(d.Len()), ctiTail(d)
	s := newState(d, m, a) // reuse EET bookkeeping and selector state
	table := NewReservationTable(m)

	cands := make([]int32, 0, 16)
	for i := int32(0); i < tail; i++ {
		if s.unschedParents[i] == 0 {
			cands = append(cands, i)
		}
	}
	type placed struct {
		node int32
		at   int32
	}
	order := make([]placed, 0, n)
	var maxAt int32 = -1
	put := func(pick, from int32) {
		at := int32(table.TryPlace(d.Nodes[pick].Inst.Op, int(from)))
		if at > maxAt {
			maxAt = at
		}
		s.scheduled[pick] = true
		s.issue[pick] = at
		s.last = pick
		order = append(order, placed{pick, at})
		for _, p := range s.succs(pick) {
			to := p.Node()
			s.unschedParents[to]--
			if t := at + p.Delay(); t > s.eet[to] {
				s.eet[to] = t
			}
			if to < tail && s.unschedParents[to] == 0 {
				cands = append(cands, to)
			}
		}
	}
	for len(cands) > 0 {
		pick := sel.Pick(s, cands)
		for k, c := range cands {
			if c == pick {
				cands[k] = cands[len(cands)-1]
				cands = cands[:len(cands)-1]
				break
			}
		}
		put(pick, s.eet[pick])
	}
	if tail < n {
		// The block-ending CTI stays last in time.
		put(tail, max(s.eet[tail], maxAt+1))
	}
	// Sort by placement time (stable on node index) to form the order.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && (order[j].at < order[j-1].at ||
			(order[j].at == order[j-1].at && order[j].node < order[j-1].node)); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	r := &Result{Order: make([]int32, n), Issue: s.issue}
	for i, p := range order {
		r.Order[i] = p.node
	}
	for i := range d.Nodes {
		if fin := s.issue[i] + int32(m.Latency(d.Nodes[i].Inst.Op)); fin > r.Cycles {
			r.Cycles = fin
		}
	}
	return r
}

// ReservationDefault runs Reservation with the Section 6 heuristic
// order (max path/delay to leaf), the natural pairing for a
// reservation-table scheduler.
func ReservationDefault(d *dag.DAG, m *machine.Model) *Result {
	a := heur.New(d, m)
	a.ComputeBackward()
	a.ComputeLocal()
	return Reservation(d, m, a, Winnow([]RankedKey{
		{Key: heur.MaxDelayToLeaf},
		{Key: heur.MaxPathToLeaf},
		{Key: heur.DelaysToChildren},
	}))
}
