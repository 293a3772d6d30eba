package heur

import (
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/testgen"
)

// The fused-backward benchmark pair: both variants run the full
// per-block front end (prepare → backward table build → every heuristic
// the Section 6 selector reads) in recycled arena storage.
//
//	/observer fuses the heuristics into construction (PR 1's pipeline):
//	          values propagate through the observer as arcs are added.
//	/csr      builds plain, freezes the DAG into its packed CSR view,
//	          then computes the same values in one reverse walk over the
//	          packed successor records (the paper's "single cheap walk",
//	          now over contiguous memory).
//
// Both are 0 allocs/op in steady state; the CSR walk wins on locality.
func BenchmarkFusedBackward(b *testing.B) {
	m := machine.Pipe1()
	blk := &block.Block{Name: "bench", Insts: testgen.Block(777, 200)}
	for i := range blk.Insts {
		blk.Insts[i].Index = i
	}

	b.Run("observer", func(b *testing.B) {
		rt := resource.NewTable(resource.MemExprModel)
		ar := new(dag.BuildArena)
		a := New(nil, m)
		obs := &FusedBackward{A: a, ComputeLocals: true}
		bld := dag.TableBackward{Observer: obs}
		rt.PrepareBlock(blk.Insts)
		d := bld.BuildInto(ar, blk, m, rt)
		arcs := d.NumArcs
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.PrepareBlock(blk.Insts)
			bld.BuildInto(ar, blk, m, rt)
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)*float64(arcs)/secs, "arcs/sec")
		}
	})

	b.Run("csr", func(b *testing.B) {
		rt := resource.NewTable(resource.MemExprModel)
		ar := new(dag.BuildArena)
		a := New(nil, m)
		bld := dag.TableBackward{}
		rt.PrepareBlock(blk.Insts)
		d := bld.BuildInto(ar, blk, m, rt)
		arcs := d.NumArcs
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.PrepareBlock(blk.Insts)
			d := bld.BuildInto(ar, blk, m, rt)
			d.Freeze()
			a.D = d
			a.ComputeFusedCSR()
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)*float64(arcs)/secs, "arcs/sec")
		}
	})
}

// BenchmarkFusedBackwardCSR is the satellite's named entry point: the
// frozen-walk fused pass alone (build and freeze outside the timer),
// isolating the cost of computing every backward/local heuristic from
// the packed successor records.
func BenchmarkFusedBackwardCSR(b *testing.B) {
	m := machine.Pipe1()
	blk := &block.Block{Name: "bench", Insts: testgen.Block(777, 200)}
	for i := range blk.Insts {
		blk.Insts[i].Index = i
	}
	rt := resource.NewTable(resource.MemExprModel)
	rt.PrepareBlock(blk.Insts)
	d := dag.TableBackward{}.Build(blk, m, rt)
	d.Freeze()
	a := New(d, m)
	a.ComputeFusedCSR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ComputeFusedCSR()
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*float64(d.NumArcs)/secs, "arcs/sec")
	}
}
