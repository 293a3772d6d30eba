package heur

import (
	"daginsched/internal/buf"
	"daginsched/internal/dag"
	"daginsched/internal/isa"
	"daginsched/internal/machine"
)

// Annot holds the static heuristic annotations of one DAG. Slices are
// nil until the corresponding Compute method runs; they are indexed by
// node. All values follow the definitions in Section 3 of the paper.
//
// An Annot may be reused across blocks: point D at the new DAG and
// rerun the Compute methods — each pass recycles its slices' capacity,
// so a per-worker Annot annotating a stream of same-scale blocks
// performs no steady-state allocations.
type Annot struct {
	D *dag.DAG
	M *machine.Model

	// Add-arc ("a") heuristics. #children and #parents are the frozen
	// CSR's span widths (NumSuccs/NumPreds).
	ExecTime       []int32 // operation latency of the node
	InterlockChild []bool  // any outgoing arc with delay > 1
	SumDelayChild  []int32 // φ=sum delays to children
	SumDelayParent []int32 // φ=sum delays from parents

	// Forward ("f") heuristics.
	EST              []int32 // earliest start time (Schlansker: node latencies)
	MaxPathFromRoot  []int32
	MaxDelayFromRoot []int32 // arc-delay weighted

	// Backward ("b") heuristics.
	MaxPathToLeaf  []int32
	MaxDelayToLeaf []int32
	LST            []int32 // latest start time (requires EST first)
	Slack          []int32 // LST - EST; zero on the critical path
	NumDesc        []int32 // #descendants (reachability popcount - 1)
	SumExecDesc    []int32 // execution times summed over descendants

	// Register-usage ("a") heuristics.
	RegsBorn   []int32 // register definitions live past this node
	RegsKilled []int32 // register uses whose live range ends here
	Liveness   []int32 // net register-pressure effect (born - killed)

	// PackedPrio is the per-node packed static priority word (see
	// pack.go): the Section 6 ranking folded into one uint64 whose
	// integer order is the ranked lexicographic order with the
	// min-node-index tiebreak. Valid only while PrioExact is true;
	// every Compute pass that rewrites one of its inputs clears
	// PrioExact, and PackSection6Prio (run by ComputeFusedCSR) sets it
	// when no field is negative and the block's field widths fit 64
	// bits.
	PackedPrio []uint64
	PrioExact  bool
}

// New returns an empty annotation set for d under machine model m.
func New(d *dag.DAG, m *machine.Model) *Annot {
	return &Annot{D: d, M: m}
}

// ComputeAll runs every static pass.
func (a *Annot) ComputeAll() *Annot {
	a.ComputeLocal()
	a.ComputeForward()
	a.ComputeBackward()
	a.ComputeCritical()
	a.ComputeDescendants()
	a.ComputeRegisterUsage()
	return a
}

// ComputeLocal fills the add-arc ("a") heuristics. In the paper these
// are maintained by add_arc during construction; recomputing them from
// the final successor spans is equivalent and keeps the builders lean.
// Each arc adds its delay to its parent's sum to children and its
// child's sum from parents.
func (a *Annot) ComputeLocal() {
	n := a.D.Len()
	a.PrioExact = false // SumDelayChild is a packed-priority input
	a.ExecTime = buf.Int32(a.ExecTime, n)
	a.InterlockChild = buf.Bool(a.InterlockChild, n)
	a.SumDelayChild = buf.Int32(a.SumDelayChild, n)
	a.SumDelayParent = buf.Int32(a.SumDelayParent, n)
	c := a.D.Freeze()
	for i := int32(0); i < int32(n); i++ {
		a.ExecTime[i] = int32(a.M.Latency(a.D.Nodes[i].Inst.Op))
		for _, p := range succs(c, i) {
			delay := p.Delay()
			a.SumDelayChild[i] += delay
			a.SumDelayParent[p.Node()] += delay
			if delay > 1 {
				a.InterlockChild[i] = true
			}
		}
	}
}

// ComputeForward fills the forward-pass ("f") heuristics by walking the
// instruction list in program order, which is a topological order of
// every DAG this package sees (builders emit forward arcs only). Each
// node pushes its values along its child arcs; every parent precedes
// its child, so a node's values are final when the walk reaches it.
func (a *Annot) ComputeForward() {
	n := a.D.Len()
	a.EST = buf.Int32(a.EST, n)
	a.MaxPathFromRoot = buf.Int32(a.MaxPathFromRoot, n)
	a.MaxDelayFromRoot = buf.Int32(a.MaxDelayFromRoot, n)
	c := a.D.Freeze()
	for i := int32(0); i < int32(n); i++ {
		for _, p := range succs(c, i) {
			ch, delay := p.Node(), p.Delay()
			// Schlansker's EST is max of earliest_start(p) + latency(p);
			// we use the arc delay, which equals latency(p) on RAW arcs
			// and stays accurate on 1-cycle WAR arcs.
			a.EST[ch] = max(a.EST[ch], a.EST[i]+delay)
			a.MaxPathFromRoot[ch] = max(a.MaxPathFromRoot[ch], a.MaxPathFromRoot[i]+1)
			a.MaxDelayFromRoot[ch] = max(a.MaxDelayFromRoot[ch], a.MaxDelayFromRoot[i]+delay)
		}
	}
}

// ComputeBackward fills max path/delay to a leaf with a reverse walk of
// the instruction list — the mechanism Section 4 recommends over level
// lists ("any reverse topological sort, including a reverse scan of the
// original instructions in the basic block, produces the same result").
func (a *Annot) ComputeBackward() {
	n := a.D.Len()
	a.PrioExact = false // the to-leaf passes are packed-priority inputs
	a.MaxPathToLeaf = buf.Int32(a.MaxPathToLeaf, n)
	a.MaxDelayToLeaf = buf.Int32(a.MaxDelayToLeaf, n)
	c := a.D.Freeze()
	for i := int32(n) - 1; i >= 0; i-- {
		a.backwardNode(c, i)
	}
}

// ComputeFusedCSR fills the backward to-leaf heuristics and the
// child-side add-arc locals in one reverse walk over the frozen CSR
// view — the Annot-level counterpart of the construction-fused
// FusedBackward observer. The engine's CSR pipeline uses it as the
// whole heuristic step: the paper's "single cheap walk" (Section 4),
// here over the packed 8-byte successor records with no per-node slice
// headers in the loop. Node spans are walked in descending order, so a
// node's span is entered only after every child's is done; every
// accumulation is order-independent.
//
// It fills exactly the annotations FusedBackward with ComputeLocals
// fills (MaxPathToLeaf, MaxDelayToLeaf, ExecTime, InterlockChild,
// SumDelayChild), with identical values, and finishes
// by packing the Section 6 priority words (PackSection6Prio) while the
// freshly computed inputs are still cache-hot.
//
//sched:noalloc
func (a *Annot) ComputeFusedCSR() {
	c := a.D.Freeze()
	n := a.D.Len()
	a.MaxPathToLeaf = buf.Int32(a.MaxPathToLeaf, n)
	a.MaxDelayToLeaf = buf.Int32(a.MaxDelayToLeaf, n)
	a.ExecTime = buf.Int32(a.ExecTime, n)
	a.InterlockChild = buf.Bool(a.InterlockChild, n)
	a.SumDelayChild = buf.Int32(a.SumDelayChild, n)
	for i := 0; i < n; i++ {
		a.ExecTime[i] = int32(a.M.Latency(a.D.Nodes[i].Inst.Op))
	}
	packed := c.PackedSuccArcs()
	for i := int32(n) - 1; i >= 0; i-- {
		lo, hi := c.SuccSpan(i)
		for _, p := range packed[lo:hi] {
			to, delay := p.Node(), p.Delay()
			if l := a.MaxPathToLeaf[to] + 1; l > a.MaxPathToLeaf[i] {
				a.MaxPathToLeaf[i] = l
			}
			if d := a.MaxDelayToLeaf[to] + delay; d > a.MaxDelayToLeaf[i] {
				a.MaxDelayToLeaf[i] = d
			}
			a.SumDelayChild[i] += delay
			if delay > 1 {
				a.InterlockChild[i] = true
			}
		}
	}
	a.PackSection6Prio()
}

// succs returns node i's packed successor records.
func succs(c *dag.CSR, i int32) []dag.PackedArc {
	lo, hi := c.SuccSpan(i)
	return c.PackedSuccArcs()[lo:hi]
}

// backwardNode computes the to-leaf heuristics of node i assuming every
// child is final. Shared by the reverse walk and the level-lists engine.
func (a *Annot) backwardNode(c *dag.CSR, i int32) {
	for _, p := range succs(c, i) {
		to := p.Node()
		a.MaxPathToLeaf[i] = max(a.MaxPathToLeaf[i], a.MaxPathToLeaf[to]+1)
		a.MaxDelayToLeaf[i] = max(a.MaxDelayToLeaf[i], a.MaxDelayToLeaf[to]+p.Delay())
	}
}

// ComputeCritical fills LST and slack. It needs EST (running
// ComputeForward first if necessary) because "the latest start time of
// a block-terminating dummy node is the value assigned to that node for
// earliest start time; therefore, this calculation can only begin after
// the forward pass".
func (a *Annot) ComputeCritical() {
	if a.EST == nil {
		a.ComputeForward()
	}
	n := a.D.Len()
	a.LST = buf.Int32(a.LST, n)
	a.Slack = buf.Int32(a.Slack, n)
	if n == 0 {
		return
	}
	// The dummy terminating node's EST: completion time of the whole DAG.
	var total int32
	for i := 0; i < n; i++ {
		if fin := a.EST[i] + int32(a.M.Latency(a.D.Nodes[i].Inst.Op)); fin > total {
			total = fin
		}
	}
	c := a.D.Freeze()
	for i := int32(n) - 1; i >= 0; i-- {
		lat := int32(a.M.Latency(a.D.Nodes[i].Inst.Op))
		lst := total - lat
		for _, p := range succs(c, i) {
			lst = min(lst, a.LST[p.Node()]-p.Delay())
		}
		a.LST[i] = lst
		a.Slack[i] = a.LST[i] - a.EST[i]
	}
}

// ComputeDescendants fills #descendants and the summed execution times
// of descendants using reachability bit maps, the paper's recommended
// method ("the #descendants is then merely the population count on the
// reachability bit map ... minus one").
func (a *Annot) ComputeDescendants() {
	n := a.D.Len()
	a.NumDesc = buf.Int32(a.NumDesc, n)
	a.SumExecDesc = buf.Int32(a.SumExecDesc, n)
	if a.ExecTime == nil {
		a.ComputeLocal()
	}
	reach := a.D.Reachability()
	for i := 0; i < n; i++ {
		a.NumDesc[i] = int32(reach[i].Count() - 1)
		var sum int32
		reach[i].ForEach(func(j int) {
			sum += a.ExecTime[j]
		})
		a.SumExecDesc[i] = sum - a.ExecTime[i]
	}
}

// ComputeRegisterUsage fills the prepass register-pressure heuristics.
// A register definition is "born" when some later instruction in the
// block reads it; a use is a "kill" when it is the last reference to
// that definition's value in the block. Liveness is Warren's net
// pressure effect, simplified to born − killed.
func (a *Annot) ComputeRegisterUsage() {
	n := a.D.Len()
	a.RegsBorn = buf.Int32(a.RegsBorn, n)
	a.RegsKilled = buf.Int32(a.RegsKilled, n)
	a.Liveness = buf.Int32(a.Liveness, n)
	// Walk backward tracking, per register, whether the value current at
	// each point is read by some later instruction.
	var readLater [64]bool // integer + FP registers
	var uses, defs []isa.ResRef
	for i := n - 1; i >= 0; i-- {
		in := a.D.Nodes[i].Inst
		defs = in.AppendDefs(defs[:0])
		for _, d := range defs {
			if d.Kind != isa.RReg && d.Kind != isa.RFReg {
				continue
			}
			if readLater[d.Reg] {
				a.RegsBorn[i]++
			}
			// Readers below i belong to this definition's value; the
			// value live before it has no readers past this point.
			readLater[d.Reg] = false
		}
		uses = in.AppendUses(uses[:0])
		for _, u := range uses {
			if u.Kind != isa.RReg && u.Kind != isa.RFReg {
				continue
			}
			if !readLater[u.Reg] {
				// First reader found walking backward = last reader in
				// program order: this use kills the live range.
				a.RegsKilled[i]++
				readLater[u.Reg] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		a.Liveness[i] = a.RegsBorn[i] - a.RegsKilled[i]
	}
}

// FusedBackward is a dag.BackwardObserver that computes the to-leaf
// heuristics while the backward table-building pass constructs the DAG —
// the paper's third approach, which "eliminates child revisitation
// overhead" (Section 6): by the time a node is finalized all of its
// children already carry final values, so no separate intermediate pass
// is needed.
type FusedBackward struct {
	A *Annot
	// ComputeLocals additionally fills the add-arc heuristics used by
	// Section 6's scheduling pipeline (delays to children, interlock).
	ComputeLocals bool
}

// Start implements dag.BackwardObserver.
func (f *FusedBackward) Start(d *dag.DAG) {
	n := d.Len()
	f.A.D = d
	f.A.PrioExact = false // the observer rewrites packed-priority inputs
	f.A.MaxPathToLeaf = buf.Int32(f.A.MaxPathToLeaf, n)
	f.A.MaxDelayToLeaf = buf.Int32(f.A.MaxDelayToLeaf, n)
	if f.ComputeLocals {
		f.A.ExecTime = buf.Int32(f.A.ExecTime, n)
		f.A.InterlockChild = buf.Bool(f.A.InterlockChild, n)
		f.A.SumDelayChild = buf.Int32(f.A.SumDelayChild, n)
	}
}

// NodeDone implements dag.BackwardObserver. The DAG is still under
// construction, so it reads node i's arc list, which is final.
func (f *FusedBackward) NodeDone(d *dag.DAG, i int32) {
	a := f.A
	for _, arc := range d.Nodes[i].Succs {
		a.MaxPathToLeaf[i] = max(a.MaxPathToLeaf[i], a.MaxPathToLeaf[arc.To]+1)
		a.MaxDelayToLeaf[i] = max(a.MaxDelayToLeaf[i], a.MaxDelayToLeaf[arc.To]+arc.Delay)
	}
	if !f.ComputeLocals {
		return
	}
	a.ExecTime[i] = int32(a.M.Latency(d.Nodes[i].Inst.Op))
	for _, arc := range d.Nodes[i].Succs {
		a.SumDelayChild[i] += arc.Delay
		if arc.Delay > 1 {
			a.InterlockChild[i] = true
		}
	}
}
