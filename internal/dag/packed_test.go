package dag

import (
	"testing"

	"daginsched/internal/machine"
	"daginsched/internal/resource"
)

// predLists transposes d's Succs lists: node i's incoming arcs in
// ascending parent order, the order of freeze's predecessor spans.
func predLists(d *DAG) [][]Arc {
	preds := make([][]Arc, d.Len())
	for i := range d.Nodes {
		for _, arc := range d.Nodes[i].Succs {
			preds[arc.To] = append(preds[arc.To], arc)
		}
	}
	return preds
}

// TestFreezeMatchesMirrors checks the Freeze lifecycle on DAGs from
// every builder: no view before Freeze, one view however often Freeze
// is called, and per-node spans as wide as the Succs lists and their
// transpose.
func TestFreezeMatchesMirrors(t *testing.T) {
	m := machine.Pipe1()
	for _, bld := range AllBuilders() {
		rt := resource.NewTable(resource.MemExprModel)
		b := csrTestBlock(77, 60)
		rt.PrepareBlock(b.Insts)
		d := bld.Build(b, m, rt)
		if d.csr.frozen {
			t.Fatalf("%s: DAG frozen before Freeze", bld.Name())
		}
		c := d.Freeze()
		if c == nil {
			t.Fatalf("%s: no packed view for an ordinary block", bld.Name())
		}
		if c2 := d.Freeze(); c2 != c || !c.frozen {
			t.Fatalf("%s: repeat Freeze returned a different view", bld.Name())
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: Validate after Freeze: %v", bld.Name(), err)
		}
		if len(c.PackedSuccArcs()) != d.NumArcs || len(c.PackedPredArcs()) != d.NumArcs {
			t.Fatalf("%s: packed arrays hold %d/%d arcs, want %d",
				bld.Name(), len(c.PackedSuccArcs()), len(c.PackedPredArcs()), d.NumArcs)
		}
		allPreds := predLists(d)
		for i := int32(0); int(i) < d.Len(); i++ {
			succs, preds := d.Nodes[i].Succs, allPreds[i]
			lo, hi := c.SuccSpan(i)
			if int(hi-lo) != len(succs) || int(c.NumSuccs(i)) != len(succs) {
				t.Fatalf("%s: node %d succ span [%d,%d), Succs has %d", bld.Name(), i, lo, hi, len(succs))
			}
			lo, hi = c.PredSpan(i)
			if int(hi-lo) != len(preds) || int(c.NumPreds(i)) != len(preds) {
				t.Fatalf("%s: node %d pred span [%d,%d), transpose has %d", bld.Name(), i, lo, hi, len(preds))
			}
		}
	}
}

// TestPackedRoundTrip freezes DAGs from every builder and checks the
// packed records decode to exactly the Succs lists' arcs, and the
// predecessor records to their transpose in ascending parent order,
// both through Validate's cross-check and by walking the spans by hand.
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
		allPreds := predLists(d)
		for i := int32(0); int(i) < d.Len(); i++ {
			lo, _ := c.SuccSpan(i)
			succs := d.Nodes[i].Succs
			for k, arc := range succs {
				p := c.PackedSuccArcs()[lo+int32(k)]
				if p.Node() != arc.To || p.Kind() != arc.Kind || p.Delay() != arc.Delay {
					t.Fatalf("%s: node %d packed succ %d = (%d,%v,%d), want (%d,%v,%d)",
						bld.Name(), i, k, p.Node(), p.Kind(), p.Delay(), arc.To, arc.Kind, arc.Delay)
				}
			}
			lo, _ = c.PredSpan(i)
			for k, arc := range allPreds[i] {
				p := c.PackedPredArcs()[lo+int32(k)]
				if p.Node() != arc.From || p.Kind() != arc.Kind || p.Delay() != arc.Delay {
					t.Fatalf("%s: node %d packed pred %d = (%d,%v,%d), want (%d,%v,%d)",
						bld.Name(), i, k, p.Node(), p.Kind(), p.Delay(), arc.From, arc.Kind, arc.Delay)
				}
			}
		}
	}
}

// packedTestDAG hand-builds a chain DAG with the given arc delays so
// the record's fields can be driven to their extremes directly.
func packedTestDAG(t *testing.T, delays []int32) *DAG {
	t.Helper()
	b := csrTestBlock(7, len(delays)+1)
	d := newDAG(b, "packed-test")
	for i, delay := range delays {
		d.addArc(int32(i), int32(i+1), RAW, delay)
	}
	return d
}

// TestPackedExtremesRoundTrip drives the record's fields to their
// extremes: delays from 1 to 2^31-1 through Freeze and Validate on
// both CSR halves, and PackArc/decode at the smallest and largest peer for
// every kind and extreme delay.
func TestPackedExtremesRoundTrip(t *testing.T) {
	delays := []int32{1, 65535, 65536, 1 << 20, 1<<31 - 1}
	d := packedTestDAG(t, delays)
	c := d.Freeze()
	if c == nil {
		t.Fatal("packed view absent")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for i, delay := range delays {
		lo, _ := c.SuccSpan(int32(i))
		p := c.PackedSuccArcs()[lo]
		if p.Delay() != delay || p.Node() != int32(i+1) {
			t.Fatalf("succ of %d: packed (%d,%d), want (%d,%d)", i, p.Node(), p.Delay(), i+1, delay)
		}
		lo, _ = c.PredSpan(int32(i + 1))
		p = c.PackedPredArcs()[lo]
		if p.Delay() != delay || p.Node() != int32(i) {
			t.Fatalf("pred of %d: packed (%d,%d), want (%d,%d)", i+1, p.Node(), p.Delay(), i, delay)
		}
	}
	for _, peer := range []int32{0, 1<<31 - 1} {
		for _, kind := range []DepKind{RAW, WAR, WAW} {
			for _, delay := range []int32{1, 1<<31 - 1} {
				p := PackArc(peer, kind, delay)
				if p.Node() != peer || p.Kind() != kind || p.Delay() != delay {
					t.Fatalf("PackArc(%d,%v,%d) decodes to (%d,%v,%d)",
						peer, kind, delay, p.Node(), p.Kind(), p.Delay())
				}
			}
		}
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
			sink += int64(p.Node()) + int64(p.Delay())
		}
	}
	_ = sink
}
