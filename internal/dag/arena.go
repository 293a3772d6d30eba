package dag

import (
	"daginsched/internal/bitset"
	"daginsched/internal/block"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
)

// BuildArena is the per-worker scratch store of the reuse-aware
// construction path. It owns one DAG shell whose node array, arc
// lists, per-node use/def bit maps, table-building state, arc-dedupe
// arrays and reachability maps are all recycled from block to block,
// so that a worker building DAGs for a stream of same-scale blocks
// performs no steady-state allocations (everything has grown to the
// stream's largest block after warm-up).
//
// The DAG returned by BuildInto is owned by the arena and remains
// valid only until the arena's next BuildInto call; callers that need
// the DAG to outlive the next block must use the plain Build path
// instead. A BuildArena is not safe for concurrent use — the batch
// engine gives each worker its own.
//
// The zero value is ready to use.
type BuildArena struct {
	d  DAG
	sc instScratch
	ts tableState
	ad arcDeduper

	// n2 is the scratch of the n² forward reuse path: one flat arena
	// holding every node's interned refs (the per-node use/def slices
	// the pairwise comparison loop replays), its 2n+1 offset array, and
	// the single-word ancestor masks of BuildCleanInto's transitive-arc
	// tracking.
	n2 n2Scratch

	// reach is the flat slab backing the per-node reachability maps
	// handed to DAGs built with TableBackward{PreventTransitive: true}.
	// All of a block's maps live in one contiguous word arena (node i's
	// map at stride i), so the builder's insertion-time word-parallel
	// OR loops stream through adjacent memory instead of chasing
	// per-set heap pointers. The arena is recycled across blocks.
	reach bitset.Slab
}

// resetFor recycles the arena's DAG storage for block b: the node
// array is resized (retaining each node's arc-list and bit-map
// capacity), arc lists are emptied, and counters cleared. Builders
// call it at the top of BuildInto; the DAG it returns is under
// construction until the builder freezes it.
func (ar *BuildArena) resetFor(b *block.Block, builder string) *DAG {
	d := &ar.d
	d.Block = b
	d.Builder = builder
	d.NumArcs = 0
	d.Reach = nil
	// Drop the previous block's frozen CSR view; its arrays are kept
	// and refilled when the builder freezes the new DAG.
	d.csr.frozen = false
	n := len(b.Insts)
	if cap(d.Nodes) >= n {
		d.Nodes = d.Nodes[:n]
	} else {
		nodes := make([]Node, n)
		// Keep the recycled nodes' allocated Succs/bit-map storage;
		// only the tail is genuinely new.
		copy(nodes, d.Nodes[:cap(d.Nodes)])
		d.Nodes = nodes
	}
	for i := 0; i < n; i++ {
		nd := &d.Nodes[i]
		nd.Inst = &b.Insts[i]
		nd.Succs = nd.Succs[:0]
		// UseBM/DefBM are recycled lazily by instScratch.extract.
	}
	return d
}

// reachSets returns n emptied reachability sets carved from the
// arena's flat slab: index i's set has bit capacity for n nodes and
// sits at word stride i of one contiguous array, which is what makes
// the builder's reachability ORs word-parallel over flat memory.
func (ar *BuildArena) reachSets(n int) []*bitset.Set {
	if n == 0 {
		return nil // match a cold build: no maps for an empty block
	}
	return ar.reach.Carve(n, n)
}

// n2Scratch is the BuildArena storage of the n² forward reuse path
// (see n2ForwardInto). refs holds every node's interned uses then defs
// back to back; off delimits the segments (node i's uses at
// [off[2i], off[2i+1]), defs at [off[2i+1], off[2i+2])); anc holds the
// strict-ancestor masks of BuildCleanInto's transitive-arc tracking.
type n2Scratch struct {
	refs []ref
	off  []int32
	anc  []uint64
}

// ReuseBuilder is implemented by construction algorithms that support
// the arena protocol: BuildInto behaves exactly like Build but draws
// every piece of storage from the arena. The two table-building
// algorithms implement it, and so does the n² forward builder, which
// the engine's RungN2 fallback runs.
type ReuseBuilder interface {
	Builder
	// BuildInto constructs the DAG inside ar. The returned DAG is
	// owned by ar, frozen, and invalidated by ar's next BuildInto.
	BuildInto(ar *BuildArena, b *block.Block, m *machine.Model, rt *resource.Table) *DAG
}
