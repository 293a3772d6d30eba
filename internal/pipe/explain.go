package pipe

import (
	"fmt"
	"strings"

	"daginsched/internal/isa"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
)

// StallCause classifies why an instruction issued later than the issue
// width alone would allow.
type StallCause uint8

const (
	// NoStall: the instruction issued as early as the front end allows.
	NoStall StallCause = iota
	// StallRAW: waiting for a true dependence (an operand in flight).
	StallRAW
	// StallWAR: waiting to overwrite a value still being read.
	StallWAR
	// StallWAW: waiting to keep writes to one resource in order.
	StallWAW
	// StallUnit: waiting for a busy (non-pipelined) function unit.
	StallUnit

	numCauses = int(StallUnit) + 1
)

// String names the cause.
func (c StallCause) String() string {
	switch c {
	case NoStall:
		return "none"
	case StallRAW:
		return "RAW"
	case StallWAR:
		return "WAR"
	case StallWAW:
		return "WAW"
	case StallUnit:
		return "unit"
	}
	return "cause?"
}

// InstStall is the per-instruction attribution.
type InstStall struct {
	// Wait is how many cycles the instruction lost to its binding
	// constraint (0 when it issued as early as issue bandwidth allows).
	Wait int32
	// Cause is the binding constraint.
	Cause StallCause
	// Culprit is the position (in the simulated order) of the
	// instruction that imposed the binding constraint, or -1.
	Culprit int32
}

// Detail is a fully-attributed simulation.
type Detail struct {
	Result
	Stalls  []InstStall      // per position in the simulated order
	ByCause [numCauses]int32 // total stall cycles per cause
}

// Explain simulates like Simulate but records, for every instruction,
// which constraint bound its issue cycle and who imposed it. The
// timing is identical to Simulate's.
func Explain(insts []isa.Inst, order []int32, m *machine.Model, rt *resource.Table) *Detail {
	if order == nil {
		order = make([]int32, len(insts))
		for i := range order {
			order[i] = int32(i)
		}
	}
	det := &Detail{
		Result: Result{Issue: make([]int32, len(order))},
		Stalls: make([]InstStall, len(order)),
	}

	type defRec struct {
		inst       *isa.Inst
		issue      int32
		pos        int32
		pairSecond bool
	}
	defs := map[resource.ID]defRec{}
	type readRec struct {
		issue int32
		pos   int32
	}
	lastRead := map[resource.ID]readRec{}
	var unitBusy [isa.NumClasses][]int32
	var unitLast [isa.NumClasses][]int32 // position that busied each unit
	for c := 0; c < isa.NumClasses; c++ {
		if k := m.Units[c]; k > 0 {
			unitBusy[c] = make([]int32, k)
			unitLast[c] = make([]int32, k)
			for i := range unitLast[c] {
				unitLast[c][i] = -1
			}
		}
	}

	var clock, usedSlots, usedGroups int32
	var ubuf, dbuf []isa.ResRef
	for pos, idx := range order {
		in := &insts[idx]
		class := in.Class()
		at := int32(0)
		bind := InstStall{Culprit: -1}
		consider := func(t int32, cause StallCause, culprit int32) {
			if t > at {
				at = t
				bind.Cause = cause
				bind.Culprit = culprit
			}
		}
		ubuf = in.AppendUses(ubuf[:0])
		for _, u := range ubuf {
			id := rt.RefID(in, u)
			if d, ok := defs[id]; ok {
				consider(d.issue+int32(m.RAWDelay(d.inst, d.pairSecond, in, u.Slot)),
					StallRAW, d.pos)
			}
		}
		dbuf = in.AppendDefs(dbuf[:0])
		for _, d := range dbuf {
			id := rt.RefID(in, d)
			if r, ok := lastRead[id]; ok {
				consider(r.issue+int32(m.WARDelayFor(nil, in)), StallWAR, r.pos)
			}
			if prev, ok := defs[id]; ok {
				consider(prev.issue+int32(m.WAWDelay(prev.inst, in)), StallWAW, prev.pos)
			}
		}
		var unitIdx int
		if free, ui := unitFree(unitBusy[class]); ui >= 0 {
			unitIdx = ui
			consider(free, StallUnit, unitLast[class][ui])
		}
		// Width floor: how early pure issue bandwidth would allow.
		floor := clock
		if usedSlots >= int32(m.IssueWidth) ||
			(m.IssueWidth > 1 && usedGroups&(1<<machine.IssueGroup(class)) != 0) {
			floor = clock + 1
		}
		if at > floor {
			bind.Wait = at - floor
		} else {
			bind.Cause, bind.Culprit = NoStall, -1
		}
		if at < floor {
			at = floor
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
		det.Issue[pos] = at
		det.Stalls[pos] = bind
		det.ByCause[bind.Cause] += bind.Wait
		if fin := at + int32(m.Latency(in.Op)); fin > det.Cycles {
			det.Cycles = fin
		}
		for _, u := range ubuf {
			id := rt.RefID(in, u)
			if r, ok := lastRead[id]; !ok || at > r.issue {
				lastRead[id] = readRec{issue: at, pos: int32(pos)}
			}
		}
		for _, d := range dbuf {
			id := rt.RefID(in, d)
			defs[id] = defRec{inst: in, issue: at, pos: int32(pos),
				pairSecond: d.PairSecond}
			delete(lastRead, id)
		}
		if units := unitBusy[class]; len(units) > 0 {
			units[unitIdx] = at + int32(m.UnitBusy(in.Op))
			unitLast[class][unitIdx] = int32(pos)
		}
	}
	return det
}

// Report renders the attribution: a per-cause summary and the stalled
// instructions with their culprits.
func (d *Detail) Report(insts []isa.Inst, order []int32) string {
	if order == nil {
		order = make([]int32, len(insts))
		for i := range order {
			order[i] = int32(i)
		}
	}
	var b strings.Builder
	var total int32
	for c := 1; c < numCauses; c++ {
		total += d.ByCause[c]
	}
	fmt.Fprintf(&b, "%d cycles, %d lost to stalls (RAW %d, WAR %d, WAW %d, unit %d)\n",
		d.Cycles, total, d.ByCause[StallRAW], d.ByCause[StallWAR],
		d.ByCause[StallWAW], d.ByCause[StallUnit])
	for pos, st := range d.Stalls {
		if st.Wait == 0 {
			continue
		}
		culprit := "?"
		if st.Culprit >= 0 {
			culprit = insts[order[st.Culprit]].String()
		}
		fmt.Fprintf(&b, "  @%-3d %-28s waits %2d (%s on: %s)\n",
			d.Issue[pos], insts[order[pos]].String(), st.Wait, st.Cause, culprit)
	}
	return b.String()
}
