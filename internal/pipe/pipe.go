// Package pipe is an in-order pipeline simulator that times an
// instruction sequence directly from a register/memory scoreboard —
// deliberately *without* consulting a dependence DAG. It exists as an
// independent witness: sched.Timed derives timing from DAG arcs, pipe
// derives it from raw def/use information, and the test suites require
// the two to agree cycle-for-cycle on table-built DAGs. A bug in arc
// delays, in the table-building algorithms' last-def/use bookkeeping,
// or in the scheduler's clock shows up as a disagreement.
//
// There is one simulator loop, Explain's: it times the sequence and
// names the constraint that bound each instruction's issue cycle.
// Simulate is its timing half.
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

// Simulate times insts[order[0]], insts[order[1]], … on machine m: the
// timing half of Explain, which it runs.
func Simulate(insts []isa.Inst, order []int32, m *machine.Model, rt *resource.Table) *Result {
	return &Explain(insts, order, m, rt).Result
}
