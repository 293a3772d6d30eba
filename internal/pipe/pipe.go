// Package pipe is an in-order pipeline simulator that times an
// instruction sequence directly from a register/memory scoreboard —
// deliberately *without* consulting a dependence DAG. It exists as an
// independent witness: sched.Timed derives timing from DAG arcs, pipe
// derives it from raw def/use information, and the test suites require
// the two to agree cycle-for-cycle on table-built DAGs. A bug in arc
// delays, in the table-building algorithms' last-def/use bookkeeping,
// or in the scheduler's clock shows up as a disagreement.
package pipe

import (
	"daginsched/internal/isa"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
)

// Result is the timing of one simulated sequence.
type Result struct {
	// Issue is the issue cycle per position in the simulated order.
	Issue []int32
	// Cycles is the completion time (max issue + latency).
	Cycles int32
}

// defRecord remembers the in-flight definition of one resource.
type defRecord struct {
	inst       *isa.Inst
	issue      int32
	pairSecond bool
	valid      bool
}

// Simulate times insts[order[0]], insts[order[1]], … on machine m.
// A nil order means program order. The resource table rt must have
// PrepareBlock(insts) applied; it supplies the memory-disambiguation
// policy (use the same table the DAG builder saw to compare against
// sched.Timed).
func Simulate(insts []isa.Inst, order []int32, m *machine.Model, rt *resource.Table) *Result {
	if order == nil {
		order = make([]int32, len(insts))
		for i := range order {
			order[i] = int32(i)
		}
	}
	res := &Result{Issue: make([]int32, len(order))}

	defs := map[resource.ID]defRecord{}
	lastRead := map[resource.ID]int32{}
	var unitBusy [isa.NumClasses][]int32
	for c := 0; c < isa.NumClasses; c++ {
		if k := m.Units[c]; k > 0 {
			unitBusy[c] = make([]int32, k)
		}
	}

	var clock, usedSlots, usedGroups int32
	var ubuf, dbuf []isa.ResRef
	for pos, idx := range order {
		in := &insts[idx]
		class := in.Class()
		at := int32(0)

		ubuf = in.AppendUses(ubuf[:0])
		for _, u := range ubuf {
			id := rt.RefID(in, u)
			if d, ok := defs[id]; ok && d.valid {
				if t := d.issue + int32(m.RAWDelay(d.inst, d.pairSecond, in, u.Slot)); t > at {
					at = t
				}
			}
		}
		dbuf = in.AppendDefs(dbuf[:0])
		for _, d := range dbuf {
			id := rt.RefID(in, d)
			if r, ok := lastRead[id]; ok {
				if t := r + int32(m.WARDelayFor(nil, in)); t > at {
					at = t
				}
			}
			if prev, ok := defs[id]; ok && prev.valid {
				if t := prev.issue + int32(m.WAWDelay(prev.inst, in)); t > at {
					at = t
				}
			}
		}
		// Structural hazard: wait for a free function unit.
		if free, _ := unitFree(unitBusy[class]); free > at {
			at = free
		}
		// In-order issue: never before the current cycle; one slot per
		// group on a superscalar.
		if at < clock {
			at = clock
		}
		group := int32(machine.IssueGroup(class))
		for {
			if at > clock {
				clock, usedSlots, usedGroups = at, 0, 0
			}
			if usedSlots < int32(m.IssueWidth) &&
				(m.IssueWidth == 1 || usedGroups&(1<<group) == 0) {
				break
			}
			at = clock + 1
		}
		usedSlots++
		usedGroups |= 1 << group
		res.Issue[pos] = at
		if fin := at + int32(m.Latency(in.Op)); fin > res.Cycles {
			res.Cycles = fin
		}
		// Scoreboard updates.
		for _, u := range ubuf {
			id := rt.RefID(in, u)
			if r, ok := lastRead[id]; !ok || at > r {
				lastRead[id] = at
			}
		}
		for _, d := range dbuf {
			id := rt.RefID(in, d)
			defs[id] = defRecord{inst: in, issue: at, pairSecond: d.PairSecond, valid: true}
			delete(lastRead, id)
		}
		if units := unitBusy[class]; len(units) > 0 {
			_, ui := unitFree(units)
			units[ui] = at + int32(m.UnitBusy(in.Op))
		}
	}
	return res
}

func unitFree(units []int32) (int32, int) {
	if len(units) == 0 {
		return 0, -1
	}
	best, bi := units[0], 0
	for i, t := range units[1:] {
		if t < best {
			best, bi = t, i+1
		}
	}
	return best, bi
}
