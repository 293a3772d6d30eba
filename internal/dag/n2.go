package dag

import (
	"daginsched/internal/bitset"
	"daginsched/internal/block"
	"daginsched/internal/buf"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
)

// n2Compare computes the strongest dependence from node j to node i
// (j earlier), returning the maximum delay over every conflicting
// resource pair and the kind that produced it. found is false when the
// instructions are independent.
func n2Compare(d *DAG, m *machine.Model, j, i int32,
	jUses, jDefs, iUses, iDefs []ref) (kind DepKind, delay int32, found bool) {
	nj, ni := &d.Nodes[j], &d.Nodes[i]
	consider := func(k DepKind, dl int) {
		if !found || int32(dl) > delay {
			kind, delay = k, int32(dl)
		}
		found = true
	}
	// RAW: j defines a resource i uses.
	if nj.DefBM.Intersects(ni.UseBM) {
		for _, def := range jDefs {
			if !ni.UseBM.Test(int(def.id)) {
				continue
			}
			for _, use := range iUses {
				if use.id == def.id {
					consider(RAW, m.RAWDelay(nj.Inst, def.pairSecond, ni.Inst, use.slot))
				}
			}
		}
	}
	// WAR: j uses a resource i defines.
	if nj.UseBM.Intersects(ni.DefBM) {
		consider(WAR, m.WARDelayFor(nj.Inst, ni.Inst))
	}
	// WAW: j and i define the same resource.
	if nj.DefBM.Intersects(ni.DefBM) {
		consider(WAW, m.WAWDelay(nj.Inst, ni.Inst))
	}
	return kind, delay, found
}

// N2Forward is the compare-against-all forward construction algorithm
// (Warren-like): each new instruction is compared against every
// previous instruction, an O(n²) pass that "has a huge number of
// transitive arcs" (Section 2). Use block.SplitWindow to keep it
// practical on large blocks (Section 6 recommends a window of no more
// than 300–400 instructions).
type N2Forward struct{}

// Name implements Builder.
func (N2Forward) Name() string { return "n2f" }

// Direction implements Builder.
func (N2Forward) Direction() Direction { return Forward }

// Build implements Builder.
func (t N2Forward) Build(b *block.Block, m *machine.Model, rt *resource.Table) *DAG {
	return t.BuildInto(new(BuildArena), b, m, rt)
}

// BuildInto implements ReuseBuilder: the per-node interned refs live
// in one flat arena segment and every other piece of storage — nodes,
// arc lists, bit maps — is recycled, so the n² forward builder is a
// first-class zero-alloc peer of the table builders. The engine's RungN2 fallback builds with it:
// a construction algorithm that shares no table state with the
// primary pipeline. The returned DAG is arena-owned.
//
//sched:noalloc
func (t N2Forward) BuildInto(ar *BuildArena, b *block.Block, m *machine.Model, rt *resource.Table) *DAG {
	d, _ := n2ForwardInto(ar, b, m, rt, false)
	return d
}

// N2MaskCap is the largest block BuildCleanInto can track: its
// per-node ancestor sets are single machine words, which keeps the
// transitive-arc detection one OR and one AND per arc.
const N2MaskCap = 64

// BuildCleanInto is BuildInto with exactness tracking: it reports
// whether the constructed DAG is free of transitive arcs. When clean
// is true the n² arc set *is* the transitive reduction of the block's
// dependence relation, and therefore identical — same pairs, same
// deduped delays — to the arc set either table builder produces (a
// table builder only ever omits an arc that some retained path
// covers, and an uncoverable arc is by definition non-transitive).
// perfbench's layer replay is its only caller: it times n²
// construction on tiny blocks against table building.
//
// Construction aborts as soon as a transitive arc is discovered
// (returning a nil DAG and clean=false; the arena stays reusable), and
// blocks larger than N2MaskCap are rejected outright — callers fall
// back to table building either way.
//
//sched:noalloc
func (t N2Forward) BuildCleanInto(ar *BuildArena, b *block.Block, m *machine.Model, rt *resource.Table) (*DAG, bool) {
	if len(b.Insts) > N2MaskCap {
		return nil, false
	}
	return n2ForwardInto(ar, b, m, rt, true)
}

// n2ForwardInto is the shared reuse-path core of BuildInto and
// BuildCleanInto. With track set, anc[i] accumulates the strict-
// ancestor mask of node i; an arc j→i is transitive exactly when j is
// an ancestor of another parent of i, i.e. when the parent mask and
// the union of the parents' ancestor masks intersect.
//
//sched:noalloc
func n2ForwardInto(ar *BuildArena, b *block.Block, m *machine.Model, rt *resource.Table, track bool) (*DAG, bool) {
	d := ar.ResetFor(b, "n2f")
	sc := &ar.sc
	n2 := &ar.n2
	n := len(b.Insts)
	n2.off = buf.Int32(n2.off, 2*n+1)
	n2.refs = n2.refs[:0]
	if track {
		n2.anc = buf.Uint64(n2.anc, n)
	}
	for i := 0; i < n; i++ {
		node := &d.Nodes[i]
		u, df := sc.extract(node.Inst, rt, node)
		// Copy the extraction scratch (overwritten next node) into the
		// flat ref arena: node i's uses at off[2i], defs at off[2i+1].
		//sched:lint-ignore noalloc amortized: the flat ref arena retains its capacity across blocks
		n2.refs = append(n2.refs, u...)
		n2.off[2*i+1] = int32(len(n2.refs))
		//sched:lint-ignore noalloc amortized: the flat ref arena retains its capacity across blocks
		n2.refs = append(n2.refs, df...)
		n2.off[2*i+2] = int32(len(n2.refs))
		iUses := n2.refs[n2.off[2*i]:n2.off[2*i+1]]
		iDefs := n2.refs[n2.off[2*i+1]:n2.off[2*i+2]]
		var parents, covered uint64
		for j := 0; j < i; j++ {
			jUses := n2.refs[n2.off[2*j]:n2.off[2*j+1]]
			jDefs := n2.refs[n2.off[2*j+1]:n2.off[2*j+2]]
			kind, delay, found := n2Compare(d, m, int32(j), int32(i), jUses, jDefs, iUses, iDefs)
			if !found {
				continue
			}
			d.addArc(int32(j), int32(i), kind, delay)
			if track {
				parents |= 1 << uint(j)
				covered |= n2.anc[j]
			}
		}
		if track {
			if parents&covered != 0 {
				// Some parent j of i is a strict ancestor of another
				// parent: the arc j→i is transitive. Abort — the caller
				// rebuilds with a table builder.
				return nil, false
			}
			n2.anc[i] = parents | covered
		}
	}
	return d, true
}

// N2Backward is the compare-against-all algorithm run as a backward
// pass, the construction Table 2 attributes to Gibbons & Muchnick (who
// "used backward-pass DAG construction to handle condition code
// dependencies in a special way"). Each instruction, taken last to
// first, is compared against every later instruction; the arc set is
// identical to N2Forward's.
type N2Backward struct{}

// Name implements Builder.
func (N2Backward) Name() string { return "n2b" }

// Direction implements Builder.
func (N2Backward) Direction() Direction { return Backward }

// Build implements Builder.
func (N2Backward) Build(b *block.Block, m *machine.Model, rt *resource.Table) *DAG {
	d := newDAG(b, "n2b")
	n := int32(len(b.Insts))
	var sc instScratch
	uses := make([][]ref, n)
	defs := make([][]ref, n)
	for i := n - 1; i >= 0; i-- {
		u, df := sc.extract(d.Nodes[i].Inst, rt, &d.Nodes[i])
		uses[i] = append([]ref(nil), u...)
		defs[i] = append([]ref(nil), df...)
	}
	// Arc discovery still runs pairwise; the backward pass changes the
	// order resources are interned (and therefore the bit-map growth
	// profile), not the resulting arc set.
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			kind, delay, found := n2Compare(d, m, i, j, uses[i], defs[i], uses[j], defs[j])
			if found {
				d.addArc(i, j, kind, delay)
			}
		}
	}
	return d
}

// Landskov is the transitive-arc-avoidance modification of the n²
// forward algorithm (Landskov et al. 1980): for each new instruction it
// "examines leaves first and prunes away any ancestors whenever a
// dependency is observed", so no transitive arc is ever inserted.
// Section 2 and conclusion 3 of the paper recommend *against* this
// approach: the pruned arcs can carry timing information that the
// remaining WAR-then-RAW paths understate (Figure 1).
type Landskov struct{}

// Name implements Builder.
func (Landskov) Name() string { return "landskov" }

// Direction implements Builder.
func (Landskov) Direction() Direction { return Forward }

// Build implements Builder.
func (Landskov) Build(b *block.Block, m *machine.Model, rt *resource.Table) *DAG {
	d := newDAG(b, "landskov")
	var sc instScratch
	uses := make([][]ref, len(b.Insts))
	defs := make([][]ref, len(b.Insts))
	// parents[i] lists node i's parents for the ancestor walk; the DAG
	// itself keeps only child lists.
	parents := make([][]int32, len(b.Insts))
	pruned := bitset.New(len(b.Insts))
	for i := range d.Nodes {
		u, df := sc.extract(d.Nodes[i].Inst, rt, &d.Nodes[i])
		uses[i] = append([]ref(nil), u...)
		defs[i] = append([]ref(nil), df...)
		pruned.Reset()
		// Scan from most recent to earliest: the most recent conflicting
		// instructions are the "leaves" of the partial DAG relative to
		// node i. Once j is connected, every ancestor of j is pruned —
		// any dependence on them is transitively covered.
		for j := int32(i) - 1; j >= 0; j-- {
			if pruned.Test(int(j)) {
				continue
			}
			kind, delay, found := n2Compare(d, m, j, int32(i),
				uses[j], defs[j], uses[i], defs[i])
			if !found {
				continue
			}
			d.addArc(j, int32(i), kind, delay)
			parents[i] = append(parents[i], j)
			markAncestors(parents, j, pruned)
		}
	}
	return d
}

// markAncestors sets the bits of every ancestor of node j (and j
// itself) in the scratch set.
func markAncestors(parents [][]int32, j int32, pruned *bitset.Set) {
	if pruned.Test(int(j)) {
		return
	}
	pruned.Set(int(j))
	for _, p := range parents[j] {
		markAncestors(parents, p, pruned)
	}
}
