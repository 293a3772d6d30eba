package dag

import (
	"daginsched/internal/bitset"
	"daginsched/internal/block"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
)

// use is one entry of a resource's current-use list.
type use struct {
	node int32
	slot uint8
}

// tableState is the per-resource record of the table-building methods:
// "a record of the last definition of a resource and the set of current
// uses" (Section 2). The arrays grow as memory expressions are interned
// mid-pass, mirroring the paper's variable-length resource bit map.
type tableState struct {
	lastDef    []int32 // node index + 1; 0 means empty
	defPairOdd []bool  // last definition was the odd half of a pair
	useList    [][]use
	// touched logs every resource the current block has written, so
	// reset clears exactly those slots: a block pays for the resources
	// it names, not for the register ID space or the largest count the
	// arrays ever held.
	touched []resource.ID
}

// grow sizes the arrays for n resources; new slots are clean.
func (ts *tableState) grow(n int) {
	for len(ts.lastDef) < n {
		ts.lastDef = append(ts.lastDef, 0)
		ts.defPairOdd = append(ts.defPairOdd, false)
		ts.useList = append(ts.useList, nil)
	}
}

// touch logs resource id before the block first writes it. A slot
// nobody has written this block is clean (no definition, no uses), and
// every write leaves a definition or a use behind, so "clean" is
// exactly "not yet logged".
func (ts *tableState) touch(id resource.ID) {
	if ts.lastDef[id] == 0 && len(ts.useList[id]) == 0 {
		ts.touched = append(ts.touched, id)
	}
}

// reset empties the table for a new block while keeping every
// allocated array — including each resource's use-list capacity — so
// recycled state performs no steady-state allocations.
func (ts *tableState) reset() {
	for _, id := range ts.touched {
		ts.lastDef[id] = 0
		ts.defPairOdd[id] = false
		ts.useList[id] = ts.useList[id][:0]
	}
	ts.touched = ts.touched[:0]
}

// TableForward is forward-pass table building (Krishnamurthy-like).
// Resource uses of the new node are processed before its definitions;
// a definition draws WAR arcs from the pending use list (clearing it)
// or, when no uses intervened, a WAW arc from the previous definition.
// Most transitive arcs are omitted "because they erase all but the most
// recent definition/uses", yet delay-carrying arcs like Figure 1's are
// retained.
type TableForward struct{}

// Name implements Builder.
func (TableForward) Name() string { return "tablef" }

// Direction implements Builder.
func (TableForward) Direction() Direction { return Forward }

// Build implements Builder.
func (t TableForward) Build(b *block.Block, m *machine.Model, rt *resource.Table) *DAG {
	return t.BuildInto(new(BuildArena), b, m, rt)
}

// BuildInto implements ReuseBuilder: identical construction, but every
// piece of storage — nodes, arc lists, bit maps, table state — is
// recycled from the arena. The returned DAG is arena-owned.
func (t TableForward) BuildInto(ar *BuildArena, b *block.Block, m *machine.Model, rt *resource.Table) *DAG {
	d := ar.resetFor(b, t.Name())
	sc := &ar.sc
	ts := &ar.ts
	ts.reset()
	ts.grow(rt.NumResources())
	ad := &ar.ad
	ad.reset(len(b.Insts))
	for i := int32(0); i < int32(len(d.Nodes)); i++ {
		node := &d.Nodes[i]
		uses, defs := sc.extract(node.Inst, rt, node)
		ts.grow(rt.NumResources())
		ad.begin()
		// Process resources used.
		for _, u := range uses {
			ts.touch(u.id)
			if ld := ts.lastDef[u.id]; ld != 0 {
				parent := ld - 1
				delay := m.RAWDelay(d.Nodes[parent].Inst, ts.defPairOdd[u.id], node.Inst, u.slot)
				ad.propose(parent, parent, i, RAW, int32(delay))
			}
			ts.useList[u.id] = append(ts.useList[u.id], use{node: i, slot: u.slot})
		}
		// Process resources defined.
		for _, def := range defs {
			ts.touch(def.id)
			if ul := ts.useList[def.id]; len(ul) > 0 {
				for _, e := range ul {
					if e.node != i {
						delay := m.WARDelayFor(d.Nodes[e.node].Inst, node.Inst)
						ad.propose(e.node, e.node, i, WAR, int32(delay))
					}
				}
				ts.useList[def.id] = ul[:0]
			} else if ld := ts.lastDef[def.id]; ld != 0 && ld-1 != i {
				parent := ld - 1
				delay := m.WAWDelay(d.Nodes[parent].Inst, node.Inst)
				ad.propose(parent, parent, i, WAW, int32(delay))
			}
			ts.lastDef[def.id] = i + 1
			ts.defPairOdd[def.id] = def.pairSecond
		}
		ad.flush(d)
	}
	d.csr.freeze(d)
	return d
}

// TableBackward is backward-pass table building (Hunnicutt's algorithm,
// quoted verbatim in Section 2 of the paper). Walking from the last
// instruction to the first, the per-resource record holds the *next*
// definition and the set of uses awaiting one. Definitions of the new
// node are processed before its uses.
//
// An optional BackwardObserver receives nodes as they are finalized;
// because every outgoing arc of node i exists when NodeDone(i) fires,
// backward static heuristics can be computed inline with construction —
// the paper's third approach, which "eliminates child revisitation
// overhead" (Section 6).
type TableBackward struct {
	// Observer, when non-nil, is notified as nodes finalize.
	Observer BackwardObserver
	// PreventTransitive enables the reachability-bit-map check of
	// Section 2 that refuses transitive arcs at insertion time. The
	// resulting maps are retained on DAG.Reach (they also serve the
	// #descendants heuristic for free).
	PreventTransitive bool
}

// Name implements Builder.
func (t TableBackward) Name() string {
	if t.PreventTransitive {
		return "tableb-bitmap"
	}
	return "tableb"
}

// Direction implements Builder.
func (TableBackward) Direction() Direction { return Backward }

// Build implements Builder.
func (t TableBackward) Build(b *block.Block, m *machine.Model, rt *resource.Table) *DAG {
	return t.BuildInto(new(BuildArena), b, m, rt)
}

// BuildInto implements ReuseBuilder: identical construction, but every
// piece of storage — nodes, arc lists, bit maps, table state,
// reachability maps — is recycled from the arena. The returned DAG is
// arena-owned.
func (t TableBackward) BuildInto(ar *BuildArena, b *block.Block, m *machine.Model, rt *resource.Table) *DAG {
	d := ar.resetFor(b, t.Name())
	n := int32(len(d.Nodes))
	sc := &ar.sc
	ts := &ar.ts
	ts.reset()
	ts.grow(rt.NumResources())
	ad := &ar.ad
	ad.reset(len(b.Insts))
	var reach []*bitset.Set
	if t.PreventTransitive {
		reach = ar.reachSets(int(n))
	}
	if t.Observer != nil {
		t.Observer.Start(d)
	}
	for i := n - 1; i >= 0; i-- {
		node := &d.Nodes[i]
		uses, defs := sc.extract(node.Inst, rt, node)
		ts.grow(rt.NumResources())
		ad.begin()
		// Process resources defined: later uses of our value take RAW
		// arcs; with no intervening uses, the next definition takes WAW.
		for _, def := range defs {
			ts.touch(def.id)
			if ld := ts.lastDef[def.id]; ld != 0 && len(ts.useList[def.id]) == 0 && ld-1 != i {
				child := ld - 1
				delay := m.WAWDelay(node.Inst, d.Nodes[child].Inst)
				ad.propose(child, i, child, WAW, int32(delay))
			}
			for _, e := range ts.useList[def.id] {
				if e.node != i {
					delay := m.RAWDelay(node.Inst, def.pairSecond, d.Nodes[e.node].Inst, e.slot)
					ad.propose(e.node, i, e.node, RAW, int32(delay))
				}
			}
			ts.useList[def.id] = ts.useList[def.id][:0]
			ts.lastDef[def.id] = i + 1
		}
		// Process resources used: the next definition must wait (WAR).
		for _, u := range uses {
			ts.touch(u.id)
			if ld := ts.lastDef[u.id]; ld != 0 && ld-1 != i {
				child := ld - 1
				delay := m.WARDelayFor(node.Inst, d.Nodes[child].Inst)
				ad.propose(child, i, child, WAR, int32(delay))
			}
			ts.useList[u.id] = append(ts.useList[u.id], use{node: i, slot: u.slot})
		}
		if t.PreventTransitive {
			// The maps are carved from the arena's flat slab (node j's
			// map at word stride j of one contiguous array), so the OR
			// below is a word-parallel sweep over adjacent memory —
			// peer maps of nearby nodes share cache lines instead of
			// living in scattered heap allocations.
			r := reach[i] // slab-carved, empty, capacity n
			r.Set(int(i))
			// "if (bit to_b in bitmap_for_a is set) return;
			//  bitmap_for_a = bitmap_for_a OR bitmap_for_b; add_arc".
			// Arcs must be tried nearest child first: since every path
			// between two nodes runs through intermediate program
			// positions, merging the nearer child's map first guarantees
			// any transitively covered farther arc tests as reachable.
			sortArcsByTo(ad.pend)
			for _, a := range ad.pend {
				if r.Test(int(a.To)) {
					continue
				}
				r.Or(reach[a.To])
				d.addArc(a.From, a.To, a.Kind, a.Delay)
			}
		} else {
			ad.flush(d)
		}
		if t.Observer != nil {
			t.Observer.NodeDone(d, i)
		}
	}
	if t.PreventTransitive {
		d.Reach = reach
	}
	d.csr.freeze(d)
	return d
}

// sortArcsByTo insertion-sorts a small pending-arc slice by target.
func sortArcsByTo(arcs []Arc) {
	for i := 1; i < len(arcs); i++ {
		for j := i; j > 0 && arcs[j].To < arcs[j-1].To; j-- {
			arcs[j], arcs[j-1] = arcs[j-1], arcs[j]
		}
	}
}

// Builders returns the construction algorithms compared in Section 6,
// in the paper's order: n² forward (Warren-like), table-building
// forward (Krishnamurthy-like), table-building backward.
func Builders() []Builder {
	return []Builder{N2Forward{}, TableForward{}, TableBackward{}}
}

// AllBuilders additionally includes the two transitive-arc-avoidance
// variants discussed in Section 2.
func AllBuilders() []Builder {
	return []Builder{
		N2Forward{}, N2Backward{}, TableForward{}, TableBackward{},
		Landskov{}, TableBackward{PreventTransitive: true},
	}
}

// ByName returns a builder by its Name, for CLI flags.
func ByName(name string) (Builder, bool) {
	for _, b := range AllBuilders() {
		if b.Name() == name {
			return b, true
		}
	}
	return nil, false
}
