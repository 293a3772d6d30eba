package dag

import (
	"fmt"
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/synth"
	"daginsched/internal/testgen"
)

func csrTestBlock(seed int64, n int) *block.Block {
	b := &block.Block{Name: "csr", Insts: testgen.Block(seed, n)}
	for i := range b.Insts {
		b.Insts[i].Index = i
	}
	return b
}

// TestCSRReuseAcrossResetFor drives one arena through blocks of
// shrinking and growing sizes, freezing each build, and demands the
// recycled CSR storage never leaks arcs from a previous block.
func TestCSRReuseAcrossResetFor(t *testing.T) {
	m := machine.Pipe1()
	rt := resource.NewTable(resource.MemExprModel)
	ar := new(BuildArena)
	bld := TableBackward{}
	for round, n := range []int{80, 11, 0, 120, 1, 47} {
		b := csrTestBlock(int64(1000+round), n)
		rt.PrepareBlock(b.Insts)
		d := bld.BuildInto(ar, b, m, rt)
		if d.csr.frozen {
			t.Fatalf("round %d: ResetFor kept the previous block's frozen view", round)
		}
		d.Freeze()
		if err := d.Validate(); err != nil {
			t.Fatalf("round %d (n=%d): %v", round, n, err)
		}
		// The frozen view must agree with a cold rebuild of the block.
		rt2 := resource.NewTable(resource.MemExprModel)
		rt2.PrepareBlock(b.Insts)
		cold := bld.Build(b, m, rt2)
		if cold.NumArcs != d.NumArcs {
			t.Fatalf("round %d: recycled build has %d arcs, cold build %d",
				round, d.NumArcs, cold.NumArcs)
		}
	}
}

// TestValidateCatchesCSRDivergence corrupts a frozen view in several
// ways and checks Validate reports each one.
func TestValidateCatchesCSRDivergence(t *testing.T) {
	m := machine.Pipe1()
	build := func() *DAG {
		rt := resource.NewTable(resource.MemExprModel)
		b := csrTestBlock(9, 40)
		rt.PrepareBlock(b.Insts)
		d := TableBackward{}.Build(b, m, rt)
		d.Freeze()
		if err := d.Validate(); err != nil {
			t.Fatalf("clean DAG invalid: %v", err)
		}
		if d.NumArcs == 0 {
			t.Fatal("test block produced no arcs")
		}
		return d
	}

	d := build()
	d.csr.succPacked[0] += 1 << packedNodeBits // delay + 1
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted a diverged succ record")
	}

	d = build()
	last := len(d.csr.predPacked) - 1
	d.csr.predPacked[last] ^= 1 << packedKindShift // flip the kind
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted a diverged pred record")
	}

	d = build()
	d.csr.predPacked[0] ^= 1 // another peer
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted a pred record naming the wrong parent")
	}

	d = build()
	d.csr.succOff[1] = d.csr.succOff[1] + 1
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted non-matching offsets")
	}

	d = build()
	d.csr.predOff[1], d.csr.predOff[2] = d.csr.predOff[2]+1, d.csr.predOff[1]
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted non-monotone offsets")
	}

	d = build()
	d.csr.succPacked = d.csr.succPacked[:len(d.csr.succPacked)-1]
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted a truncated packed array")
	}
}

// BenchmarkFreeze times freeze alone, refilling recycled CSR storage,
// on backward-table DAGs of linpack's largest block (a Table 3-sized
// block) and of fpppp's 11,750-instruction giant. It reports ns/arc:
// the per-arc cost of packing the successor half and deriving the
// predecessor half by transposition.
func BenchmarkFreeze(b *testing.B) {
	m := machine.Pipe1()
	for _, name := range []string{"linpack", "fpppp"} {
		p, _ := synth.ByName(name)
		var blk *block.Block
		for _, bl := range p.Generate() {
			if blk == nil || bl.Len() > blk.Len() {
				blk = bl
			}
		}
		rt := resource.NewTable(resource.MemExprModel)
		rt.PrepareBlock(blk.Insts)
		d := TableBackward{}.Build(blk, m, rt)
		b.Run(fmt.Sprintf("%s/n=%d", name, blk.Len()), func(b *testing.B) {
			d.csr.freeze(d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.csr.freeze(d)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d.NumArcs), "ns/arc")
		})
	}
}
