package dag

import (
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/testgen"
)

func n2TestBlock(seed int64, n int) *block.Block {
	b := &block.Block{Name: "n2", Insts: testgen.Block(seed, n)}
	for i := range b.Insts {
		b.Insts[i].Index = i
	}
	return b
}

// arcSet flattens a DAG's arcs into a canonical map for set comparison
// (insertion order differs between builders; the set must not).
func arcSet(d *DAG) map[[2]int32]Arc {
	set := make(map[[2]int32]Arc, d.NumArcs)
	for i := range d.Nodes {
		for _, arc := range d.Nodes[i].Succs {
			set[[2]int32{arc.From, arc.To}] = arc
		}
	}
	return set
}

// TestN2BuildIntoMatchesBuild requires the reuse path to reproduce the
// plain Build path arc for arc, across blocks of uneven sizes streamed
// through one arena (exercising shrink/regrow of the flat ref arena).
func TestN2BuildIntoMatchesBuild(t *testing.T) {
	m := machine.Pipe1()
	rt := resource.NewTable(resource.MemExprModel)
	var ar BuildArena
	for i, n := range []int{40, 3, 0, 1, 97, 12, 64, 7} {
		b := n2TestBlock(int64(100+i), n)
		rt.PrepareBlock(b.Insts)
		want := N2Forward{}.Build(b, m, rt)
		rt.PrepareBlock(b.Insts)
		got := N2Forward{}.BuildInto(&ar, b, m, rt)
		if err := got.Validate(); err != nil {
			t.Fatalf("n=%d: invalid DAG: %v", n, err)
		}
		if got.NumArcs != want.NumArcs {
			t.Fatalf("n=%d: %d arcs, want %d", n, got.NumArcs, want.NumArcs)
		}
		ws, gs := arcSet(want), arcSet(got)
		for k, arc := range ws {
			if gs[k] != arc {
				t.Fatalf("n=%d: arc %v = %+v, want %+v", n, k, gs[k], arc)
			}
		}
	}
}

// TestN2BuildCleanInto checks the exactness guard both ways: the clean
// verdict must agree with TransitiveArcs() == 0 computed on the plain
// n² DAG, and on every clean block the n² arc set must equal the
// backward table builder's — the exactness BuildCleanInto promises.
func TestN2BuildCleanInto(t *testing.T) {
	m := machine.Pipe1()
	rt := resource.NewTable(resource.MemExprModel)
	var ar, art BuildArena
	cleanSeen, dirtySeen := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		for _, n := range []int{2, 3, 5, 8, 13, 21, 34, 55} {
			b := n2TestBlock(seed, n)
			rt.PrepareBlock(b.Insts)
			plain := N2Forward{}.Build(b, m, rt)
			wantClean := plain.TransitiveArcs() == 0
			rt.PrepareBlock(b.Insts)
			d, clean := N2Forward{}.BuildCleanInto(&ar, b, m, rt)
			if clean != wantClean {
				t.Fatalf("seed=%d n=%d: clean=%v, TransitiveArcs=%d",
					seed, n, clean, plain.TransitiveArcs())
			}
			if !clean {
				dirtySeen++
				if d != nil {
					t.Fatalf("seed=%d n=%d: dirty build returned a DAG", seed, n)
				}
				continue
			}
			cleanSeen++
			tb := TableBackward{}.BuildInto(&art, b, m, rt)
			ws, gs := arcSet(tb), arcSet(d)
			if len(ws) != len(gs) {
				t.Fatalf("seed=%d n=%d: clean n² has %d arcs, tableb %d", seed, n, len(gs), len(ws))
			}
			for k, arc := range ws {
				g, ok := gs[k]
				if !ok || g.Delay != arc.Delay {
					t.Fatalf("seed=%d n=%d: arc %v = %+v, tableb %+v", seed, n, k, g, arc)
				}
			}
		}
	}
	if cleanSeen == 0 || dirtySeen == 0 {
		t.Fatalf("degenerate coverage: %d clean, %d dirty", cleanSeen, dirtySeen)
	}
}

// TestN2BuildCleanIntoMaskCap rejects blocks beyond the single-word
// ancestor-mask capacity.
func TestN2BuildCleanIntoMaskCap(t *testing.T) {
	m := machine.Pipe1()
	rt := resource.NewTable(resource.MemExprModel)
	var ar BuildArena
	b := n2TestBlock(1, N2MaskCap+1)
	rt.PrepareBlock(b.Insts)
	if d, clean := (N2Forward{}).BuildCleanInto(&ar, b, m, rt); clean || d != nil {
		t.Fatalf("block of %d insts accepted (clean=%v)", N2MaskCap+1, clean)
	}
}

// TestN2BuildIntoSteadyStateZeroAlloc is the satellite zero-alloc
// property at the dag layer: once the arena has warmed up, rebuilding
// n² DAGs (clean-tracking or not) allocates nothing.
func TestN2BuildIntoSteadyStateZeroAlloc(t *testing.T) {
	m := machine.Pipe1()
	rt := resource.NewTable(resource.MemExprModel)
	var ar BuildArena
	b := n2TestBlock(7, 60)
	rt.PrepareBlock(b.Insts)
	N2Forward{}.BuildInto(&ar, b, m, rt)
	allocs := testing.AllocsPerRun(50, func() {
		rt.PrepareBlock(b.Insts)
		if d := (N2Forward{}).BuildInto(&ar, b, m, rt); d.NumArcs == 0 {
			t.Fatal("no arcs built")
		}
		rt.PrepareBlock(b.Insts)
		N2Forward{}.BuildCleanInto(&ar, b, m, rt)
	})
	if allocs != 0 {
		t.Errorf("steady-state n² BuildInto allocates %.1f/op", allocs)
	}
}

// BenchmarkN2BuildInto times the n² reuse path on tiny and small
// blocks against the backward table builder on the same stream. Both are 0 allocs/op in steady state.
func BenchmarkN2BuildInto(b *testing.B) {
	m := machine.Pipe1()
	for _, n := range []int{4, 8, 16, 64} {
		blk := n2TestBlock(int64(n), n)
		b.Run(benchSize(n)+"/n2", func(b *testing.B) {
			rt := resource.NewTable(resource.MemExprModel)
			var ar BuildArena
			rt.PrepareBlock(blk.Insts)
			N2Forward{}.BuildInto(&ar, blk, m, rt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.PrepareBlock(blk.Insts)
				N2Forward{}.BuildInto(&ar, blk, m, rt)
			}
		})
		b.Run(benchSize(n)+"/tableb", func(b *testing.B) {
			rt := resource.NewTable(resource.MemExprModel)
			var ar BuildArena
			rt.PrepareBlock(blk.Insts)
			TableBackward{}.BuildInto(&ar, blk, m, rt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.PrepareBlock(blk.Insts)
				TableBackward{}.BuildInto(&ar, blk, m, rt)
			}
		})
	}
}

func benchSize(n int) string {
	return "n" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}
