package dag

import (
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/testgen"
)

// TestArenaRecycledAfterAbandonedBuild is the quarantine regression:
// the engine's fault path abandons a built-but-unscheduled (and
// possibly corrupted) DAG mid-pipeline, and the arena must serve the
// next block as if nothing happened — identical structure to a
// fresh-arena build, and still allocation-free once warm. Stale arc
// state leaking across resetFor is exactly the failure this pins.
func TestArenaRecycledAfterAbandonedBuild(t *testing.T) {
	m := machine.Super2()
	rt := resource.NewTable(resource.MemExprModel)
	mk := func(seed int64, n int) *block.Block {
		b := &block.Block{Name: "q", Insts: testgen.Block(seed, n)}
		for i := range b.Insts {
			b.Insts[i].Index = i
		}
		return b
	}
	poisoned := mk(500, 120)
	next := mk(501, 48)

	var ar BuildArena
	rt.PrepareBlock(poisoned.Insts)
	d := TableBackward{}.BuildInto(&ar, poisoned, m, rt)
	// Scribble over the abandoned DAG the way a faulted pipeline might
	// leave it: corrupted delays in the arc lists and in the frozen
	// CSR view's predecessor records.
	c := d.Freeze()
	for i := range d.Nodes {
		for k := range d.Nodes[i].Succs {
			d.Nodes[i].Succs[k].Delay += 1 << 20
		}
	}
	for k := range c.PackedPredArcs() {
		c.PackedPredArcs()[k] = PackArc(0, RAW, 1<<20)
	}

	rt.PrepareBlock(next.Insts)
	got := TableBackward{}.BuildInto(&ar, next, m, rt)

	freshRT := resource.NewTable(resource.MemExprModel)
	freshRT.PrepareBlock(next.Insts)
	var freshAr BuildArena
	want := TableBackward{}.BuildInto(&freshAr, next, m, rt)
	_ = freshRT
	requireSameDAG(t, want, got)

	// And the recycled arena is still on the zero-allocation contract.
	rt.PrepareBlock(poisoned.Insts)
	TableBackward{}.BuildInto(&ar, poisoned, m, rt) // regrow to max size
	allocs := testing.AllocsPerRun(20, func() {
		rt.PrepareBlock(next.Insts)
		TableBackward{}.BuildInto(&ar, next, m, rt)
	})
	if allocs != 0 {
		t.Errorf("post-abandonment BuildInto allocates %.1f/block, want 0", allocs)
	}
}
