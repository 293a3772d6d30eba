package dag

import (
	"testing"

	"daginsched/internal/machine"
	"daginsched/internal/resource"
)

// TestFreezeMatchesMirrors checks the Freeze lifecycle on DAGs from
// every builder: no view before Freeze, one view however often Freeze
// or FrozenCSR is called, and per-node spans as wide as the
// Succs/Preds mirrors.
func TestFreezeMatchesMirrors(t *testing.T) {
	m := machine.Pipe1()
	for _, bld := range AllBuilders() {
		rt := resource.NewTable(resource.MemExprModel)
		b := csrTestBlock(77, 60)
		rt.PrepareBlock(b.Insts)
		d := bld.Build(b, m, rt)
		if d.FrozenCSR() != nil {
			t.Fatalf("%s: DAG frozen before Freeze", bld.Name())
		}
		c := d.Freeze()
		if c == nil {
			t.Fatalf("%s: no packed view for an ordinary block", bld.Name())
		}
		if c2 := d.Freeze(); c2 != c || d.FrozenCSR() != c {
			t.Fatalf("%s: repeat Freeze/FrozenCSR returned a different view", bld.Name())
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: Validate after Freeze: %v", bld.Name(), err)
		}
		if len(c.PackedSuccArcs()) != d.NumArcs || len(c.PackedPredArcs()) != d.NumArcs {
			t.Fatalf("%s: packed arrays hold %d/%d arcs, want %d",
				bld.Name(), len(c.PackedSuccArcs()), len(c.PackedPredArcs()), d.NumArcs)
		}
		for i := int32(0); int(i) < d.Len(); i++ {
			succs, preds := d.Nodes[i].Succs, d.Nodes[i].Preds
			lo, hi := c.SuccSpan(i)
			if int(hi-lo) != len(succs) || int(c.NumSuccs(i)) != len(succs) {
				t.Fatalf("%s: node %d succ span [%d,%d), mirror has %d", bld.Name(), i, lo, hi, len(succs))
			}
			lo, hi = c.PredSpan(i)
			if int(hi-lo) != len(preds) || int(c.NumPreds(i)) != len(preds) {
				t.Fatalf("%s: node %d pred span [%d,%d), mirror has %d", bld.Name(), i, lo, hi, len(preds))
			}
		}
	}
}

// TestPackedRoundTrip freezes DAGs from every builder and checks the
// packed records decode to exactly the Succs/Preds mirrors' arcs, both
// through Validate's cross-check and by walking the spans by hand.
func TestPackedRoundTrip(t *testing.T) {
	m := machine.Pipe1()
	for _, bld := range AllBuilders() {
		rt := resource.NewTable(resource.MemExprModel)
		b := csrTestBlock(91, 80)
		rt.PrepareBlock(b.Insts)
		d := bld.Build(b, m, rt)
		c := d.Freeze()
		if c == nil {
			t.Fatalf("%s: no packed view for an ordinary block", bld.Name())
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: Validate: %v", bld.Name(), err)
		}
		for i := int32(0); int(i) < d.Len(); i++ {
			lo, _ := c.SuccSpan(i)
			succs := d.Nodes[i].Succs
			for k, arc := range succs {
				p := c.PackedSuccArcs()[lo+int32(k)]
				if p.Node() != arc.To || p.Kind() != arc.Kind || c.Delay(p) != arc.Delay {
					t.Fatalf("%s: node %d packed succ %d = (%d,%v,%d), want (%d,%v,%d)",
						bld.Name(), i, k, p.Node(), p.Kind(), c.Delay(p), arc.To, arc.Kind, arc.Delay)
				}
			}
			lo, _ = c.PredSpan(i)
			preds := d.Nodes[i].Preds
			for k, arc := range preds {
				p := c.PackedPredArcs()[lo+int32(k)]
				if p.Node() != arc.From || p.Kind() != arc.Kind || c.Delay(p) != arc.Delay {
					t.Fatalf("%s: node %d packed pred %d = (%d,%v,%d), want (%d,%v,%d)",
						bld.Name(), i, k, p.Node(), p.Kind(), c.Delay(p), arc.From, arc.Kind, arc.Delay)
				}
			}
		}
	}
}

// packedTestDAG hand-builds a small DAG with the given arc delays so
// the spill machinery can be driven directly.
func packedTestDAG(t *testing.T, delays []int32) *DAG {
	t.Helper()
	b := csrTestBlock(7, len(delays)+1)
	d := newDAG(b, "packed-test")
	for i, delay := range delays {
		d.addArc(int32(i), int32(i+1), RAW, delay)
	}
	return d
}

// TestPackedOverflowSpill drives delays past the 16-bit field and
// checks they round-trip through the spill table, on both mirrors.
func TestPackedOverflowSpill(t *testing.T) {
	delays := []int32{1, 70000, 3, 1 << 20, 65535, 65536}
	d := packedTestDAG(t, delays)
	c := d.Freeze()
	if c == nil {
		t.Fatal("packed view absent")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Three delays are oversize; each spills once per mirror.
	if len(c.spill) != 6 {
		t.Fatalf("spill table holds %d entries, want 6", len(c.spill))
	}
	spilled := 0
	for i, delay := range delays {
		lo, _ := c.SuccSpan(int32(i))
		p := c.PackedSuccArcs()[lo]
		if c.Delay(p) != delay || p.Node() != int32(i+1) {
			t.Fatalf("succ of %d: packed (%d,%d), want (%d,%d)", i, p.Node(), c.Delay(p), i+1, delay)
		}
		if p&packedSpillBit != 0 {
			spilled++
		}
		lo, _ = c.PredSpan(int32(i + 1))
		p = c.PackedPredArcs()[lo]
		if c.Delay(p) != delay || p.Node() != int32(i) {
			t.Fatalf("pred of %d: packed (%d,%d), want (%d,%d)", i+1, p.Node(), c.Delay(p), i, delay)
		}
	}
	if spilled != 3 {
		t.Fatalf("%d succ records spilled, want 3", spilled)
	}
}

// TestPackedSpillExhausted gives a DAG more oversize delays than the
// 16-bit spill index can address across its two directions (each
// direction alone fits): Freeze must leave it unfrozen, Validate must
// still pass on the mirrors, and a repeat Freeze must not retry the
// pack.
func TestPackedSpillExhausted(t *testing.T) {
	n := 0
	for n*(n-1)/2 <= packedMaxSpills/2 {
		n++
	}
	d := newDAG(csrTestBlock(3, n), "spill-exhaust")
	for a := int32(0); int(a) < n; a++ {
		for b := a + 1; int(b) < n; b++ {
			d.addArc(a, b, RAW, packedDelayMask+1+a)
		}
	}
	if d.NumArcs > packedMaxSpills || 2*d.NumArcs <= packedMaxSpills {
		t.Fatalf("%d oversize arcs do not exhaust the spill index only across both directions", d.NumArcs)
	}
	if c := d.Freeze(); c != nil {
		t.Fatal("Freeze packed a block whose spill index runs out")
	}
	if d.FrozenCSR() != nil {
		t.Fatal("FrozenCSR reports a view for an unpackable block")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	d.csr.spill = d.csr.spill[:0]
	if d.Freeze() != nil || len(d.csr.spill) != 0 {
		t.Fatal("repeat Freeze retried the pack")
	}
}

// TestPackedRefreezeRecyclesStorage pins that arena-style refreezing
// (drop the frozen view, freeze again) reuses the packed arrays
// without allocating, and that a refrozen view is still exact.
func TestPackedRefreezeRecyclesStorage(t *testing.T) {
	d := packedTestDAG(t, []int32{1, 2, 100000, 4})
	d.Freeze()
	allocs := testing.AllocsPerRun(50, func() {
		d.csr.frozen = false
		d.Freeze()
	})
	if allocs != 0 {
		t.Errorf("refreeze allocates %.1f/op, want 0", allocs)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate after refreeze: %v", err)
	}
}

// BenchmarkPackedDecode measures the packed successor walk (the
// scheduler's hottest loop shape).
func BenchmarkPackedDecode(b *testing.B) {
	m := machine.Pipe1()
	rt := resource.NewTable(resource.MemExprModel)
	blk := csrTestBlock(5, 400)
	rt.PrepareBlock(blk.Insts)
	d := TableBackward{}.Build(blk, m, rt)
	c := d.Freeze()
	b.ReportAllocs()
	var sink int64
	for i := 0; i < b.N; i++ {
		for _, p := range c.PackedSuccArcs() {
			sink += int64(p.Node()) + int64(c.Delay(p))
		}
	}
	_ = sink
}
