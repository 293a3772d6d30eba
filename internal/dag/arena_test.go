package dag

import (
	"fmt"
	"slices"
	"testing"

	"daginsched/internal/bitset"
	"daginsched/internal/block"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/synth"
	"daginsched/internal/testgen"
)

// arcKey flattens an arc for comparison.
func arcKey(a Arc) string {
	return fmt.Sprintf("%d->%d/%s/%d", a.From, a.To, a.Kind, a.Delay)
}

// requireSameDAG asserts two DAGs have identical structure: same arcs
// in the same insertion order on every node, same counters.
func requireSameDAG(t *testing.T, want, got *DAG) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("node count: want %d, got %d", want.Len(), got.Len())
	}
	if want.NumArcs != got.NumArcs {
		t.Fatalf("NumArcs: want %d, got %d", want.NumArcs, got.NumArcs)
	}
	for i := range want.Nodes {
		w, g := &want.Nodes[i], &got.Nodes[i]
		if len(w.Succs) != len(g.Succs) {
			t.Fatalf("node %d arc-list lengths differ", i)
		}
		for k := range w.Succs {
			if arcKey(w.Succs[k]) != arcKey(g.Succs[k]) {
				t.Fatalf("node %d succ %d: want %s, got %s",
					i, k, arcKey(w.Succs[k]), arcKey(g.Succs[k]))
			}
		}
		if !w.UseBM.Equal(g.UseBM) || !w.DefBM.Equal(g.DefBM) {
			t.Fatalf("node %d use/def bit maps differ", i)
		}
	}
	if (want.Reach == nil) != (got.Reach == nil) {
		t.Fatalf("Reach presence differs: want %v, got %v",
			want.Reach != nil, got.Reach != nil)
	}
	for i := range want.Reach {
		if !want.Reach[i].Equal(got.Reach[i]) {
			t.Fatalf("Reach[%d] differs", i)
		}
	}
}

// TestBuildIntoMatchesBuild drives one shared arena through a stream
// of blocks of varying size (bigger, smaller, bigger again — the
// shrink/regrow path is where stale state would leak) and requires
// byte-identical structure to a cold Build of the same block.
func TestBuildIntoMatchesBuild(t *testing.T) {
	m := machine.Pipe1()
	builders := []ReuseBuilder{
		TableForward{},
		TableBackward{},
		TableBackward{PreventTransitive: true},
	}
	sizes := []int{40, 7, 120, 1, 64, 0, 90, 13}
	for _, bld := range builders {
		t.Run(bld.Name(), func(t *testing.T) {
			var ar BuildArena
			for bi, n := range sizes {
				insts := testgen.Block(int64(1000+bi), n)
				b := &block.Block{Name: "t", Insts: insts}
				for i := range b.Insts {
					b.Insts[i].Index = i
				}
				rt := resource.NewTable(resource.MemExprModel)
				rt.PrepareBlock(b.Insts)
				cold := bld.Build(b, m, rt)

				rt2 := resource.NewTable(resource.MemExprModel)
				rt2.PrepareBlock(b.Insts)
				warm := bld.BuildInto(&ar, b, m, rt2)

				requireSameDAG(t, cold, warm)
				if err := warm.Validate(); err != nil {
					t.Fatalf("block %d: %v", bi, err)
				}
				requireResetClean(t, &ar, fmt.Sprintf("block %d", bi))
			}
		})
	}
}

// requireResetClean resets the arena's table state, as the next
// block's build would, and requires every slot the arrays hold — not
// just the ones the last block named — to be clean: no definition, no
// pair half, no pending use. A resource the builders wrote without
// logging it would survive the reset here.
func requireResetClean(t *testing.T, ar *BuildArena, what string) {
	t.Helper()
	ts := &ar.ts
	ts.reset()
	for id := range ts.lastDef {
		if ts.lastDef[id] != 0 || ts.defPairOdd[id] || len(ts.useList[id]) != 0 {
			t.Fatalf("%s: resource %d survives the reset (lastDef %d, pair-odd %v, %d uses)",
				what, id, ts.lastDef[id], ts.defPairOdd[id], len(ts.useList[id]))
		}
	}
}

// TestBuildIntoGiantTinyGiant runs fpppp's 11,750-instruction block,
// then a tiny block, then the giant again (and the tiny again) through
// one arena and one resource table, as a worker sees them. The table
// state's reset clears only the resources the previous block wrote, so
// every build must still equal a fresh arena's, and after each block's
// reset every slot of the state must be clean.
func TestBuildIntoGiantTinyGiant(t *testing.T) {
	m := machine.Pipe1()
	p, _ := synth.ByName("fpppp")
	giant := slices.MaxFunc(p.Generate(), func(x, y *block.Block) int { return x.Len() - y.Len() })
	tiny := &block.Block{Name: "tiny", Insts: testgen.Block(5, 12)}
	for i := range tiny.Insts {
		tiny.Insts[i].Index = i
	}
	for _, bld := range []ReuseBuilder{TableForward{}, TableBackward{}} {
		t.Run(bld.Name(), func(t *testing.T) {
			var ar BuildArena
			rt := resource.NewTable(resource.MemExprModel)
			for _, b := range []*block.Block{giant, tiny, giant, tiny} {
				rtCold := resource.NewTable(resource.MemExprModel)
				rtCold.PrepareBlock(b.Insts)
				cold := bld.Build(b, m, rtCold)

				rt.PrepareBlock(b.Insts)
				warm := bld.BuildInto(&ar, b, m, rt)
				requireSameDAG(t, cold, warm)
				requireResetClean(t, &ar, b.Name)
			}
			if len(ar.ts.lastDef) <= rt.NumResources() {
				t.Fatalf("the giant grew the table to %d slots, no more than the tiny block's %d; the test proves nothing",
					len(ar.ts.lastDef), rt.NumResources())
			}
		})
	}
}

// TestBuildIntoSteadyStateZeroAlloc checks the tentpole property at
// the dag layer: once the arena has warmed up on a block, rebuilding
// DAGs for it allocates nothing.
func TestBuildIntoSteadyStateZeroAlloc(t *testing.T) {
	m := machine.Pipe1()
	insts := testgen.Block(7, 200)
	b := &block.Block{Name: "t", Insts: insts}
	for i := range b.Insts {
		b.Insts[i].Index = i
	}
	for _, bld := range []ReuseBuilder{TableForward{}, TableBackward{}} {
		t.Run(bld.Name(), func(t *testing.T) {
			rt := resource.NewTable(resource.MemExprModel)
			var ar BuildArena
			// Warm-up: grow every buffer.
			rt.PrepareBlock(b.Insts)
			bld.BuildInto(&ar, b, m, rt)
			allocs := testing.AllocsPerRun(50, func() {
				rt.PrepareBlock(b.Insts)
				d := bld.BuildInto(&ar, b, m, rt)
				if d.NumArcs == 0 {
					t.Fatal("no arcs built")
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state BuildInto allocates %.1f/op", allocs)
			}
		})
	}
}

// TestArcDeduperEpochReuse covers the epoch-stamping path across
// begin() calls: marks stamped in one epoch must not be honored in the
// next, and duplicate proposals within an epoch must keep the maximum
// delay (the satellite fix: mark[peer] holds the epoch itself).
func TestArcDeduperEpochReuse(t *testing.T) {
	ad := newArcDeduper(4)

	ad.begin()
	ad.propose(2, 0, 2, RAW, 3)
	ad.propose(2, 0, 2, WAW, 5) // dedupe: max delay wins
	ad.propose(3, 0, 3, WAR, 1)
	if len(ad.pend) != 2 {
		t.Fatalf("epoch 1 pending = %d arcs, want 2", len(ad.pend))
	}
	if ad.pend[0].Delay != 5 || ad.pend[0].Kind != WAW {
		t.Errorf("dedupe kept %v, want delay 5 kind WAW", ad.pend[0])
	}
	if ad.mark[2] != ad.epoch {
		t.Errorf("mark[2] = %d, want current epoch %d", ad.mark[2], ad.epoch)
	}

	// New epoch: peer 2's stale mark must not alias into the fresh
	// pending list, and re-proposing it must append anew.
	ad.begin()
	if len(ad.pend) != 0 {
		t.Fatalf("begin did not clear pending")
	}
	ad.propose(2, 1, 2, RAW, 7)
	if len(ad.pend) != 1 || ad.pend[0].Delay != 7 || ad.pend[0].From != 1 {
		t.Fatalf("epoch 2 proposal mishandled: %+v", ad.pend)
	}
	// Duplicate within the new epoch still dedupes.
	ad.propose(2, 1, 2, WAR, 2)
	if len(ad.pend) != 1 || ad.pend[0].Delay != 7 {
		t.Errorf("epoch 2 dedupe failed: %+v", ad.pend)
	}

	// reset() for a smaller block reuses arrays and keeps epochs
	// monotonic, so stale marks keep missing.
	ad.reset(3)
	ad.begin()
	ad.propose(2, 0, 2, RAW, 1)
	if len(ad.pend) != 1 || ad.pend[0].Delay != 1 {
		t.Errorf("post-reset propose mishandled: %+v", ad.pend)
	}

	// The epoch-wrap guard rewinds and clears.
	ad.epoch = 1<<30 + 1
	ad.mark[1] = ad.epoch
	ad.reset(3)
	if ad.epoch != 0 {
		t.Errorf("epoch not rewound: %d", ad.epoch)
	}
	for i, v := range ad.mark {
		if v != 0 {
			t.Errorf("mark[%d] = %d after rewind, want 0", i, v)
		}
	}
}

// TestValidateChecksReach covers the satellite invariant: a cached
// reachability slice must have one non-nil map per node.
func TestValidateChecksReach(t *testing.T) {
	insts := testgen.Block(11, 20)
	d := buildOn(t, TableBackward{PreventTransitive: true}, insts)
	if d.Reach == nil {
		t.Fatal("bitmap builder did not cache Reach")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("valid DAG rejected: %v", err)
	}

	// Truncated cache.
	saved := d.Reach
	d.Reach = saved[:len(saved)-1]
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted truncated Reach")
	}

	// Nil entry.
	d.Reach = append([]*bitset.Set(nil), saved...)
	d.Reach[3] = nil
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted nil Reach entry")
	}

	// Missing self bit.
	d.Reach = append([]*bitset.Set(nil), saved...)
	d.Reach[3] = bitset.New(len(saved))
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted Reach map without self bit")
	}

	// On-demand Reachability also satisfies the invariant.
	d.Reach = nil
	d.Reachability()
	if err := d.Validate(); err != nil {
		t.Errorf("on-demand Reach rejected: %v", err)
	}
}
