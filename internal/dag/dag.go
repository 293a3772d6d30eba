// Package dag implements the data-dependence DAG of basic-block
// instruction scheduling and the construction algorithms compared in
// Smotherman et al. (MICRO-24, 1991):
//
//   - N2Forward — the O(n²) "compare-against-all" forward pass
//     (Warren-like); it produces many transitive arcs;
//   - Landskov — the n² forward variant that examines leaves first and
//     prunes ancestors, preventing all transitive arcs;
//   - TableForward — forward-pass table building (Krishnamurthy-like):
//     a last-definition entry and a current-use list per resource;
//   - TableBackward — backward-pass table building (Hunnicutt);
//   - TableBackwardBitmap — backward table building with reachability
//     bit maps that refuse transitive arcs at insertion.
//
// Nodes are instructions; arcs are typed (RAW/WAR/WAW) and weighted by
// the machine model's dependence delays. All builders emit arcs from
// earlier to later instructions, so ascending instruction index is a
// topological order — the property Section 4 of the paper exploits to
// replace level-list heuristic passes with a reverse walk.
package dag

import (
	"fmt"

	"daginsched/internal/bitset"
	"daginsched/internal/block"
	"daginsched/internal/isa"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
)

// DepKind classifies a dependence arc.
type DepKind uint8

const (
	// RAW is a true (read-after-write) dependence.
	RAW DepKind = iota
	// WAR is an anti (write-after-read) dependence.
	WAR
	// WAW is an output (write-after-write) dependence.
	WAW
)

// String returns the dependence name.
func (k DepKind) String() string {
	switch k {
	case RAW:
		return "RAW"
	case WAR:
		return "WAR"
	case WAW:
		return "WAW"
	}
	return "DEP?"
}

// Arc is a dependence arc between two nodes of one block's DAG.
// From < To always holds: dependence arcs point forward in program order.
type Arc struct {
	From, To int32
	Kind     DepKind
	Delay    int32 // cycles the child must wait after the parent issues
}

// Node is one instruction in the DAG.
type Node struct {
	Inst *isa.Inst
	// Succs are the arcs to this node's children, in insertion order:
	// the DAG's only arc list. Freeze derives the predecessor side.
	Succs []Arc
	// UseBM and DefBM are the instruction's use/definition resource bit
	// maps — the paper's "variable-length bit map ... to represent
	// resource use and definition". They are sized to the resource table
	// at the moment the node is processed, which is what makes the
	// construction pass's cost sensitive to when memory expressions are
	// first encountered (the Section 6 fpppp forward/backward anomaly).
	UseBM, DefBM *bitset.Set
}

// NumChildren is the paper's #children heuristic: outgoing arc count.
// It is inflated by transitive arcs under the n² builder, exactly as
// Table 1 warns.
func (n *Node) NumChildren() int { return len(n.Succs) }

// DAG is the dependence DAG (in general a forest) of one basic block.
//
// Immutability contract: once a Builder's Build (or BuildInto) returns,
// the DAG's structure — Nodes, arc lists, NumArcs — is immutable.
// Consumers (heuristic passes, schedulers, statistics) only read it,
// and Reachability caches its result on Reach under that assumption;
// nothing invalidates the cache because nothing may change the arcs.
// Code that wants a different DAG builds a new one (or recycles this
// one's storage through a BuildArena, which abandons the old view).
type DAG struct {
	Block   *block.Block
	Nodes   []Node
	NumArcs int
	// Builder names the construction algorithm that produced the DAG.
	Builder string
	// Reach holds per-node reachability maps (descendants, self
	// included) when the builder maintained them; nil otherwise. Use
	// Reachability() to compute them on demand.
	Reach []*bitset.Set

	// csr is the frozen flat-adjacency view; built by Freeze, dropped
	// (storage retained) by BuildArena.ResetFor. See csr.go.
	csr CSR
}

// Len returns the number of nodes.
func (d *DAG) Len() int { return len(d.Nodes) }

// Roots returns the indices of nodes with no parents, in program order.
// Together with the forest's other roots they form the initial
// candidate list of a forward scheduling pass.
func (d *DAG) Roots() []int32 {
	var out []int32
	for i, p := range d.numParents() {
		if p == 0 {
			out = append(out, int32(i))
		}
	}
	return out
}

// numParents counts each node's parents from the Succs lists.
func (d *DAG) numParents() []int {
	np := make([]int, len(d.Nodes))
	for i := range d.Nodes {
		for _, arc := range d.Nodes[i].Succs {
			np[arc.To]++
		}
	}
	return np
}

// Leaves returns the indices of nodes with no children, in program order.
func (d *DAG) Leaves() []int32 {
	var out []int32
	for i := range d.Nodes {
		if len(d.Nodes[i].Succs) == 0 {
			out = append(out, int32(i))
		}
	}
	return out
}

// addArc inserts an arc from parent a to child b. Builders must not
// call it with a == b; callers dedupe via arcDeduper.
func (d *DAG) addArc(a, b int32, kind DepKind, delay int32) {
	arc := Arc{From: a, To: b, Kind: kind, Delay: delay}
	//sched:lint-ignore noalloc amortized: arena-recycled nodes retain their arc-list capacity across blocks
	d.Nodes[a].Succs = append(d.Nodes[a].Succs, arc)
	d.NumArcs++
}

// Reachability returns per-node descendant bit maps (self included),
// computing them with one reverse topological walk if the builder did
// not maintain them. This is the add_arc-maintained map the paper
// recommends for the #descendants heuristic ("the #descendants is then
// merely the population count on the reachability bit map ... minus
// one").
//
// The result is cached on Reach and never invalidated — safe because a
// built DAG is immutable (see the DAG contract above). Whenever Reach
// is present it must hold exactly one map per node; Validate checks
// that invariant.
func (d *DAG) Reachability() []*bitset.Set {
	if d.Reach != nil {
		return d.Reach
	}
	n := len(d.Nodes)
	reach := make([]*bitset.Set, n)
	for i := n - 1; i >= 0; i-- {
		r := bitset.New(n)
		r.Set(i)
		for _, arc := range d.Nodes[i].Succs {
			r.Or(reach[arc.To])
		}
		reach[i] = r
	}
	d.Reach = reach
	return reach
}

// HasPath reports whether descendant is reachable from ancestor.
func (d *DAG) HasPath(ancestor, descendant int32) bool {
	return d.Reachability()[ancestor].Test(int(descendant))
}

// TransitiveArcs counts arcs (a, b) for which another a→…→b path of at
// least two arcs exists. The n² builder produces "a huge number" of
// these (Section 2); the table builders omit most but deliberately
// retain delay-carrying ones (Figure 1).
func (d *DAG) TransitiveArcs() int {
	reach := d.Reachability()
	count := 0
	for i := range d.Nodes {
		for _, arc := range d.Nodes[i].Succs {
			for _, other := range d.Nodes[i].Succs {
				if other.To != arc.To && reach[other.To].Test(int(arc.To)) {
					count++
					break
				}
			}
		}
	}
	return count
}

// Validate checks structural invariants: arcs point forward in program
// order, no self-arcs, positive delays, NumArcs counts the arc lists,
// any cached reachability (Reach) covers every node, and any frozen
// CSR view agrees arc-for-arc with the Succs lists and their
// transpose. It returns the first violation found.
func (d *DAG) Validate() error {
	if d.Reach != nil {
		if len(d.Reach) != len(d.Nodes) {
			return fmt.Errorf("cached Reach covers %d nodes, DAG has %d",
				len(d.Reach), len(d.Nodes))
		}
		for i, r := range d.Reach {
			if r == nil {
				return fmt.Errorf("cached Reach[%d] is nil", i)
			}
			if !r.Test(i) {
				return fmt.Errorf("cached Reach[%d] missing self bit", i)
			}
		}
	}
	total := 0
	for i := range d.Nodes {
		for _, arc := range d.Nodes[i].Succs {
			if arc.From != int32(i) {
				return fmt.Errorf("node %d lists succ arc with From=%d", i, arc.From)
			}
			if arc.To <= arc.From {
				return fmt.Errorf("arc %d->%d not forward", arc.From, arc.To)
			}
			if int(arc.To) >= len(d.Nodes) {
				return fmt.Errorf("arc %d->%d out of range", arc.From, arc.To)
			}
			if arc.Delay < 1 {
				return fmt.Errorf("arc %d->%d has delay %d", arc.From, arc.To, arc.Delay)
			}
		}
		total += len(d.Nodes[i].Succs)
	}
	if total != d.NumArcs {
		return fmt.Errorf("arc accounting: succ %d, NumArcs %d", total, d.NumArcs)
	}
	if d.csr.frozen {
		if err := d.validateCSR(); err != nil {
			return err
		}
	}
	return nil
}

// validateCSR cross-checks the frozen CSR view against the Succs lists
// (catching any divergence after ResetFor reuse of the CSR's recycled
// storage). The successor spans must match each node's Succs; the
// predecessor spans must match a transpose built here, arc by arc in
// ascending parent order, independently of freeze.
func (d *DAG) validateCSR() error {
	succs, preds := make([][]Arc, len(d.Nodes)), make([][]Arc, len(d.Nodes))
	for i := range d.Nodes {
		succs[i] = d.Nodes[i].Succs
		for _, arc := range d.Nodes[i].Succs {
			preds[arc.To] = append(preds[arc.To], arc)
		}
	}
	c := &d.csr
	if err := checkSpans(d, "succ", c.succOff, c.succPacked, succs); err != nil {
		return err
	}
	return checkSpans(d, "pred", c.predOff, c.predPacked, preds)
}

// checkSpans validates one direction of the CSR: the offsets must start
// at 0, be monotone and end at NumArcs over exactly NumArcs records,
// and every node's span must decode to its entry of lists element for
// element.
func checkSpans(d *DAG, dir string, off []int32, recs []PackedArc, lists [][]Arc) error {
	n := len(d.Nodes)
	if len(off) != n+1 {
		return fmt.Errorf("csr: %s offsets cover %d nodes, DAG has %d", dir, len(off)-1, n)
	}
	if off[0] != 0 || int(off[n]) != d.NumArcs || len(recs) != d.NumArcs {
		return fmt.Errorf("csr: %s offsets span [%d,%d) over %d records, NumArcs %d",
			dir, off[0], off[n], len(recs), d.NumArcs)
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			return fmt.Errorf("csr: %s offsets not monotone at node %d", dir, i)
		}
	}
	for i := range d.Nodes {
		arcs := lists[i]
		span := recs[off[i]:off[i+1]]
		if len(span) != len(arcs) {
			return fmt.Errorf("csr: node %d has %d %s records, want %d",
				i, len(span), dir, len(arcs))
		}
		for k, arc := range arcs {
			p, peer := span[k], arc.To
			if dir == "pred" {
				peer = arc.From
			}
			if p.Node() != peer || p.Kind() != arc.Kind || p.Delay() != arc.Delay {
				return fmt.Errorf("csr: node %d %s record %d decodes to (%d,%v,%d), arc is (%d,%v,%d)",
					i, dir, k, p.Node(), p.Kind(), p.Delay(), peer, arc.Kind, arc.Delay)
			}
		}
	}
	return nil
}

// Direction tells which way a builder walks the block.
type Direction uint8

const (
	// Forward walks first instruction to last.
	Forward Direction = iota
	// Backward walks last instruction to first.
	Backward
)

// String returns the paper's one-letter pass code ("f" or "b").
func (dir Direction) String() string {
	if dir == Backward {
		return "b"
	}
	return "f"
}

// BackwardObserver is notified as a backward-pass builder finalizes
// nodes. When node i is done every outgoing arc of i exists and all of
// i's children were finalized earlier, so backward static heuristics
// (max path/delay to a leaf, #descendants, …) can be computed inline —
// the fusion that lets the paper's third approach "eliminate child
// revisitation overhead" (Section 6).
type BackwardObserver interface {
	// Start announces the node count before any node is finalized.
	Start(d *DAG)
	// NodeDone is called for i = n-1 … 0 once node i's arcs are final.
	NodeDone(d *DAG, i int32)
}

// Builder constructs a DAG for one basic block.
type Builder interface {
	// Name identifies the algorithm ("n2f", "tablef", "tableb", …).
	Name() string
	// Direction is the construction pass direction.
	Direction() Direction
	// Build constructs the DAG. The resource table must already have
	// PrepareBlock(b.Insts) applied.
	Build(b *block.Block, m *machine.Model, rt *resource.Table) *DAG
}

// ref is one interned def or use.
type ref struct {
	id         resource.ID
	slot       uint8
	pairSecond bool
}

// instScratch holds the per-instruction extraction buffers shared by
// the builders.
type instScratch struct {
	uses, defs []isa.ResRef
	urefs      []ref
	drefs      []ref
}

// extract interns instruction in's resources and fills the node's
// use/def bit maps, sized to the table's current resource count. Nodes
// recycled through a BuildArena keep their bit-map storage: the sets
// are Reused in place instead of reallocated.
func (sc *instScratch) extract(in *isa.Inst, rt *resource.Table, node *Node) (uses, defs []ref) {
	sc.uses = in.AppendUses(sc.uses[:0])
	sc.defs = in.AppendDefs(sc.defs[:0])
	sc.urefs = sc.urefs[:0]
	sc.drefs = sc.drefs[:0]
	for _, u := range sc.uses {
		//sched:lint-ignore noalloc amortized: the ref scratch retains its capacity across blocks
		sc.urefs = append(sc.urefs, ref{id: rt.RefID(in, u), slot: u.Slot})
	}
	for _, dd := range sc.defs {
		//sched:lint-ignore noalloc amortized: the ref scratch retains its capacity across blocks
		sc.drefs = append(sc.drefs, ref{id: rt.RefID(in, dd), pairSecond: dd.PairSecond})
	}
	n := rt.NumResources()
	if node.UseBM == nil {
		node.UseBM = bitset.New(n)
	} else {
		node.UseBM.Reuse(n)
	}
	if node.DefBM == nil {
		node.DefBM = bitset.New(n)
	} else {
		node.DefBM.Reuse(n)
	}
	for _, u := range sc.urefs {
		node.UseBM.Set(int(u.id))
	}
	for _, dd := range sc.drefs {
		node.DefBM.Set(int(dd.id))
	}
	return sc.urefs, sc.drefs
}

// arcDeduper merges multiple dependences between the same node pair
// into one arc carrying the maximum delay (ties keep the earlier-found,
// stronger kind: builders always discover RAW before WAR/WAW for a
// pair). It relies on the builders' property that all arcs touching the
// in-flight node are proposed while that node is current.
type arcDeduper struct {
	mark  []int32 // epoch-stamped: mark[peer] == epoch when present
	pos   []int32 // index into pending
	epoch int32
	pend  []Arc
}

func newArcDeduper(n int) *arcDeduper {
	return &arcDeduper{mark: make([]int32, n), pos: make([]int32, n)}
}

// reset readies the deduper for a block of n instructions, recycling
// its arrays. The epoch counter keeps running across blocks — stale
// marks hold strictly older epochs and never match — but is rewound
// (with a full clear) long before it could wrap int32.
func (ad *arcDeduper) reset(n int) {
	if cap(ad.mark) < n {
		ad.mark = make([]int32, n)
		ad.pos = make([]int32, n)
		ad.epoch = 0
		return
	}
	ad.mark = ad.mark[:n]
	ad.pos = ad.pos[:n]
	if ad.epoch > 1<<30 {
		for i := range ad.mark {
			ad.mark[i] = 0
		}
		ad.epoch = 0
	}
}

// begin starts collecting arcs for a new in-flight node.
func (ad *arcDeduper) begin() {
	ad.epoch++
	ad.pend = ad.pend[:0]
}

// propose records a prospective arc a→b; peer is the node that is not
// the in-flight one. Duplicate (a,b) proposals keep the maximum delay.
func (ad *arcDeduper) propose(peer, a, b int32, kind DepKind, delay int32) {
	if a == b {
		return
	}
	if ad.mark[peer] == ad.epoch {
		p := &ad.pend[ad.pos[peer]]
		if delay > p.Delay {
			p.Delay = delay
			p.Kind = kind
		}
		return
	}
	ad.mark[peer] = ad.epoch
	ad.pos[peer] = int32(len(ad.pend))
	ad.pend = append(ad.pend, Arc{From: a, To: b, Kind: kind, Delay: delay})
}

// flush commits the collected arcs to the DAG in proposal order.
func (ad *arcDeduper) flush(d *DAG) {
	for _, a := range ad.pend {
		d.addArc(a.From, a.To, a.Kind, a.Delay)
	}
}

// newDAG allocates the node array for a block.
func newDAG(b *block.Block, builder string) *DAG {
	d := &DAG{Block: b, Builder: builder, Nodes: make([]Node, len(b.Insts))}
	for i := range b.Insts {
		d.Nodes[i].Inst = &b.Insts[i]
	}
	return d
}
