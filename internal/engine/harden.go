// The hardened runtime: worker fault isolation, the degradation
// ladder, soft deadlines and the always-on output gate.
//
// The table pipeline, the cache tiers and the ladder's fallback
// builders all run over shared per-worker arenas, which is exactly the
// layered fast-path design where one corrupt block or latent bug could
// take down a whole batch. The paper's "no instruction window" result
// (Tables 3–5) is what lets blocks of unbounded size reach the hot
// path, so the production engine carries the failure side of that
// story:
//
//   - Every per-block pipeline attempt runs under a recover boundary
//     (attempt, reached from the per-block function worker.run). A
//     panicking block quarantines its worker — the arena and every
//     structure that may alias it are discarded and fresh ones
//     attached — and the block retries down the degradation ladder.
//   - The ladder's rungs are RungPrimary (the table pipeline, or the
//     cache), RungTable (the table pipeline again, on the fresh scratch
//     of a quarantined worker), RungN2 (n²-direct construction with the
//     separate heuristic passes — a structurally independent second
//     construction algorithm), and RungIdentity (the original
//     program order timed on the scoreboard simulator, which consults
//     no DAG at all and is therefore always legal). A batch always
//     completes; BatchResult.Rungs records which rung served each
//     block.
//   - An always-on output gate checks every schedule before it is
//     returned or cached: structuralGate proves the order is a
//     permutation (each instruction issued exactly once), arcGate
//     proves every dependence arc's latency is respected — over both
//     the packed successor and predecessor arrays, so a predecessor
//     record that disagrees with its successor twin is caught. A gate
//     failure quarantines the worker and demotes the block.
//   - Config.BlockTimeout arms a per-block soft deadline, checked
//     cooperatively at the post-construction checkpoint; an expired
//     block demotes straight to the bounded-work identity rung instead
//     of hanging a worker.
//
// Fault injection (internal/fault) hooks into exactly three places —
// buildCheckpoint (panic, corrupt-arc), worker.serve (cache-bitflip)
// and ladder entry (slow-block) — and every hook is a nil-check no-op
// without a Config.FaultPlan.
package engine

import (
	"errors"
	"fmt"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/buf"
	"daginsched/internal/dag"
	"daginsched/internal/fault"
	"daginsched/internal/machine"
	"daginsched/internal/pipe"
	"daginsched/internal/sched"
)

// Rung identifies which step of the degradation ladder produced a
// block's schedule. The zero value is the healthy case.
type Rung uint8

const (
	// RungPrimary is the normal pipeline: backward table building,
	// freeze, fused heuristic sweep and packed selection, including
	// schedules served from the fingerprint cache.
	RungPrimary Rung = iota
	// RungTable is the first fallback: the same table pipeline retried
	// on the fresh scratch of a quarantined worker, with the block's
	// one-shot injection hooks already consumed. Its schedules are
	// byte-identical to a healthy primary run's.
	RungTable
	// RungN2 is the second fallback: n²-direct construction and the
	// separate backward and local heuristic passes — no table state,
	// no fused sweep — so it shares no construction machinery with
	// RungTable. Its builder freezes its DAG like any other.
	RungN2
	// RungIdentity is the floor: the block's original program order,
	// timed on the scoreboard simulator. It consults no DAG and is
	// always legal.
	RungIdentity

	numRungs = int(RungIdentity) + 1
)

// String names the rung for diagnostics and reports.
func (r Rung) String() string {
	switch r {
	case RungPrimary:
		return "primary"
	case RungTable:
		return "table"
	case RungN2:
		return "n2"
	case RungIdentity:
		return "identity"
	}
	return "unknown"
}

// next advances one rung down the ladder, saturating at the identity
// floor.
//
//sched:noalloc
func (r Rung) next() Rung {
	if r < RungIdentity {
		return r + 1
	}
	return RungIdentity
}

// errDeadline is the panic value of the cooperative deadline check: a
// block whose soft deadline expires mid-pipeline unwinds with it and
// is demoted straight to the identity rung.
var errDeadline = errors.New("engine: block soft deadline expired")

// buildCheckpoint runs at the end of DAG construction, once per
// pipeline attempt, on the frozen DAG: it fires the one-shot injection
// hooks armed for this block (panic-in-builder leaves the arena
// holding a built but unscheduled DAG; corrupt-arc bumps one record of
// the frozen predecessor array, the half the gate cross-checks against
// the successor half) and performs the cooperative soft-deadline
// check. The construction is complete when it runs, so a deadline
// unwind leaves the arena in its ordinary post-build state. In the
// fault-free, deadline-free configuration this is three predictable
// untaken branches.
func (w *worker) buildCheckpoint(d *dag.DAG) {
	if w.hookPanic {
		w.hookPanic = false
		w.faults++
		panic(fault.InjectedPanic{Point: fault.PanicBuilder, Key: w.hookKey})
	}
	if w.hookCorrupt {
		w.hookCorrupt = false
		if w.inj.CorruptPredArc(d, w.hookKey) {
			w.faults++
		}
	}
	if !w.deadline.IsZero() && time.Now().After(w.deadline) {
		panic(errDeadline)
	}
}

// structuralGate is the permutation half of the output gate: order
// must name each of the n nodes exactly once, and issue must carry a
// non-negative cycle for every node. It is the only half that can run
// on a cache-served schedule (no DAG exists there), and it is what
// makes a cache bitflip always detectable — flipping a bit in any
// order element either leaves the range (caught) or collides with
// another element (caught as a duplicate). Zero-alloc: the seen
// scratch is a recycled worker buffer.
//
//sched:noalloc
func (w *worker) structuralGate(order, issue []int32, n int) bool {
	if len(order) != n || len(issue) != n {
		return false
	}
	w.gateSeen = buf.Int32(w.gateSeen, n) // zero-filled: 0 marks unseen
	for _, node := range order {
		if node < 0 || int(node) >= n || w.gateSeen[node] != 0 {
			return false
		}
		w.gateSeen[node] = 1
		if issue[node] < 0 {
			return false
		}
	}
	return true
}

// arcGate is the latency half of the output gate: every arc must
// satisfy issue[To] >= issue[From] + Delay (the invariant the
// scheduler's EET propagation maintains). Both the successor and the
// predecessor records are walked — the scheduler derives timing from
// successor records alone, so a predecessor record that disagrees
// with its successor twin can never hide from this check. The walk
// streams the packed successor and predecessor spans of the frozen
// view the scheduler ran on.
//
//sched:noalloc
func arcGate(d *dag.DAG, issue []int32) bool {
	c := d.Freeze()
	succs, preds := c.PackedSuccArcs(), c.PackedPredArcs()
	for i := int32(0); int(i) < len(d.Nodes); i++ {
		lo, hi := c.SuccSpan(i)
		for _, p := range succs[lo:hi] { // i -> p.Node()
			if issue[p.Node()] < issue[i]+p.Delay() {
				return false
			}
		}
		lo, hi = c.PredSpan(i)
		for _, p := range preds[lo:hi] { // p.Node() -> i
			if issue[i] < issue[p.Node()]+p.Delay() {
				return false
			}
		}
	}
	return true
}

// gate is the full output gate for a computed schedule; an identity
// rung result has no DAG and gets the structural half only (the
// simulator that timed it is itself the legality witness).
func (w *worker) gate(d *dag.DAG, r *sched.Result, n int) bool {
	if !w.structuralGate(r.Order, r.Issue, n) {
		return false
	}
	return d == nil || arcGate(d, r.Issue)
}

// quarantine discards the worker's entire scratch set — the build
// arena, the annotation store, the scheduler state, the selector pool,
// everything a panicking or gate-failing pipeline may have left
// inconsistent or aliased — and attaches fresh ones. Only plain
// per-run bookkeeping survives: the tallies, the current block's key
// encoding (needed for the cache insert after the retry), the armed
// deadline and the claim buffer, which the claim loop is still
// ranging over. The discarded arena's storage must regrow on the
// fresh one, so a quarantine costs real allocations; it is strictly a
// fault-path event.
func (w *worker) quarantine() {
	fresh := newWorker(w.e.cfg.Model)
	fresh.e, fresh.inj = w.e, w.inj
	fresh.deadline = w.deadline
	fresh.hookKey = w.hookKey
	fresh.enc = w.enc // plain bytes: cannot alias the discarded arena
	fresh.tally = w.tally
	fresh.chunk = w.chunk
	fresh.quars++
	*w = *fresh
}

// attempt runs one rung of the ladder under the worker-isolation
// recover boundary. A clean attempt returns the rung's schedule (and
// DAG, when the rung builds one); a panicking attempt returns the
// recovered failure as err — errDeadline for a cooperative deadline
// unwind, the injected or genuine panic otherwise.
func (w *worker) attempt(b *block.Block, rung Rung) (r *sched.Result, d *dag.DAG, err error) {
	e := w.e
	defer func() {
		if p := recover(); p != nil {
			r, d = nil, nil
			if p == error(errDeadline) {
				err = errDeadline
				return
			}
			if ip, ok := p.(fault.InjectedPanic); ok {
				err = ip
				return
			}
			err = fmt.Errorf("engine: panic on rung %v: %v", rung, p)
		}
	}()
	switch rung {
	case RungPrimary, RungTable:
		r, d = w.schedule(b, e.cfg.Model)
	case RungN2:
		r, d = w.scheduleN2Direct(b, e.cfg.Model)
	default: // RungIdentity
		r = w.scheduleIdentity(b, e.cfg.Model)
	}
	return r, d, nil
}

// scheduleN2Direct is the RungN2 pipeline: n²-direct construction for
// a block of any size (transitive arcs included; the builder freezes
// the DAG) and the separate backward and local heuristic passes — no
// resource-table reuse assumptions, no fused sweep — then the same
// scheduler as the table pipeline. O(n²) construction makes it
// slower than the table pipeline on big blocks, which is fine: it is
// a fault-path rung, chosen for sharing no construction machinery
// with the rung above it.
func (w *worker) scheduleN2Direct(b *block.Block, m *machine.Model) (*sched.Result, *dag.DAG) {
	w.rt.PrepareBlock(b.Insts)
	d := dag.N2Forward{}.BuildInto(&w.ar, b, m, w.rt)
	w.buildCheckpoint(d)
	w.a.D = d
	w.a.ComputeBackward()
	w.a.ComputeLocal()
	return w.sc.Forward(d, m, w.a, w.sel), d
}

// scheduleIdentity is the ladder's floor: the block's original program
// order, timed on the scoreboard simulator. The simulator derives
// timing from raw def/use information and the machine model — no DAG,
// no heuristics, no selector — so this rung cannot be poisoned by any
// state the upper rungs corrupt, and the original order is legal by
// construction. It allocates (the simulator builds maps); that is
// acceptable for a rung that only ever serves faulted blocks.
func (w *worker) scheduleIdentity(b *block.Block, m *machine.Model) *sched.Result {
	n := b.Len()
	w.idOrder = buf.Int32(w.idOrder, n)
	for i := range w.idOrder {
		w.idOrder[i] = int32(i)
	}
	w.rt.PrepareBlock(b.Insts)
	sim := pipe.Simulate(b.Insts, w.idOrder, m, w.rt)
	// For the identity order, position equals node index, so the
	// simulator's by-position issue array is already the by-node one.
	w.idRes = sched.Result{Order: w.idOrder, Issue: sim.Issue, Cycles: sim.Cycles}
	return &w.idRes
}

// ladder computes block b's schedule, descending the degradation
// ladder until a rung's result passes the output gate. RungPrimary is
// where injection hooks are armed (they are one-shot: a retry rung
// reruns the pipeline clean); a panic or gate failure quarantines the
// worker and demotes the block one rung; a deadline expiry demotes it
// straight to the identity floor, which always succeeds.
func (w *worker) ladder(b *block.Block, h uint64) (Rung, *sched.Result, *dag.DAG) {
	rung := RungPrimary
	if w.inj != nil {
		w.hookKey = h
		w.hookPanic = w.inj.Should(fault.PanicBuilder, h)
		w.hookCorrupt = w.inj.Should(fault.CorruptArc, h)
		if w.inj.Should(fault.SlowBlock, h) {
			w.faults++
			if w.inj.Stall(w.deadline) {
				// The stall consumed the soft deadline before the
				// pipeline even ran: go straight to bounded work.
				w.demoted++
				rung = RungIdentity
			}
		}
	}
	//sched:lint-ignore cancelpoll every iteration demotes the rung or returns, so the loop is bounded by the rung count
	for {
		r, d, err := w.attempt(b, rung)
		switch {
		case err == nil && w.gate(d, r, b.Len()):
			return rung, r, d
		case err == errDeadline:
			w.demoted++
			rung = RungIdentity
			continue
		case err == nil:
			// Computed but illegal: a silent miscompile the gate caught.
			w.gateFails++
			w.quarantine()
		default:
			// Panic: injected or genuine.
			w.quarantine()
		}
		if rung == RungIdentity {
			// The identity rung has no panic sites and trivially passes
			// the gate; reaching this line means the gate itself is
			// broken, which must not be papered over.
			panic("engine: identity rung failed the output gate")
		}
		w.demoted++
		rung = rung.next()
	}
}
