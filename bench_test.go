// Benchmarks regenerating every table and figure of the paper's
// evaluation, one testing.B benchmark per artifact:
//
//	BenchmarkFigure1            — Figure 1 (transitive-arc retention)
//	BenchmarkTable1Survey       — Table 1 (registry rendering)
//	BenchmarkTable2Algorithms   — Table 2 (the six algorithms, timed)
//	BenchmarkTable3Structure    — Table 3 (benchmark generation + stats)
//	BenchmarkTable4N2           — Table 4 (n² approach per benchmark)
//	BenchmarkTable5TableFwd/Bwd — Table 5 (table building, both passes)
//	BenchmarkIntermediatePass   — Section 4 / conclusion 4 (level lists
//	                              vs reverse walk)
//	BenchmarkPairing            — conclusion 6 (construction direction ×
//	                              forward scheduling)
//	BenchmarkLandskovAblation   — conclusion 3 (transitive-arc avoidance)
//	BenchmarkWindowSweepN2      — Section 6's 300-400 window advice
//	BenchmarkMemoryModels       — Section 2's disambiguation policies
//	BenchmarkReservation        — Section 1's reservation-table method
//	BenchmarkRenaming           — false-dependence removal (extension)
//	BenchmarkDelaySlotFill      — the control-hazard pass (extension)
//	BenchmarkLoadLatencySweep   — scheduling value vs memory latency
//	BenchmarkBranchAndBound     — future work (optimal small blocks)
//
// Run with: go test -bench=. -benchmem
package daginsched_test

import (
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/delayslot"
	"daginsched/internal/heur"
	"daginsched/internal/isa"
	"daginsched/internal/machine"
	"daginsched/internal/rename"
	"daginsched/internal/resource"
	"daginsched/internal/sched"
	"daginsched/internal/synth"
	"daginsched/internal/tables"
)

// benchSets caches generated benchmarks across sub-benchmarks.
var benchSets = func() map[string][]*block.Block {
	m := map[string][]*block.Block{}
	for _, p := range synth.Profiles() {
		m[p.Name] = p.Generate()
		if p.Name == "fpppp" {
			m["fpppp-1000"] = p.GenerateWindowed(1000)
			m["fpppp-2000"] = p.GenerateWindowed(2000)
			m["fpppp-4000"] = p.GenerateWindowed(4000)
		}
	}
	return m
}()

// table4Names are the benchmarks the paper ran under n² (it stopped at
// fpppp-1000: "excessive time and space requirements").
var table4Names = []string{
	"grep", "regex", "dfa", "cccp", "linpack", "lloops", "tomcatv", "nasa7", "fpppp-1000",
}

// table5Names adds the remaining windowed rows and full fpppp.
var table5Names = append(append([]string{}, table4Names...),
	"fpppp-2000", "fpppp-4000", "fpppp")

func runApproach(b *testing.B, blocks []*block.Block, ap tables.Approach) {
	b.Helper()
	m := machine.Pipe1()
	b.ReportAllocs()
	b.ResetTimer()
	var arcs float64
	for i := 0; i < b.N; i++ {
		st := tables.Run("bench", blocks, ap, m, 1)
		if st.Cycles <= 0 {
			b.Fatal("no work done")
		}
		arcs += st.ArcsAvg * float64(len(blocks))
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*float64(len(blocks))/secs, "blocks/sec")
		b.ReportMetric(arcs/secs, "arcs/sec")
	}
}

func BenchmarkFigure1(b *testing.B) {
	m := machine.Pipe1()
	insts := tables.Figure1Block()
	blk := &block.Block{Name: "fig1", Insts: insts}
	rt := resource.NewTable(resource.MemExprModel)
	for i := 0; i < b.N; i++ {
		rt.PrepareBlock(blk.Insts)
		d := dag.TableForward{}.Build(blk, m, rt)
		a := heur.New(d, m)
		a.ComputeBackward()
		if a.MaxDelayToLeaf[0] != 20 {
			b.Fatalf("transitive arc lost: %d", a.MaxDelayToLeaf[0])
		}
	}
}

func BenchmarkTable1Survey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(tables.Table1()) < 100 {
			b.Fatal("survey truncated")
		}
	}
}

func BenchmarkTable2Algorithms(b *testing.B) {
	m := machine.Pipe1()
	blocks := benchSets["lloops"]
	for _, al := range sched.Table2() {
		b.Run(al.Name, func(b *testing.B) {
			bld := al.Builder()
			rt := resource.NewTable(resource.MemExprModel)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var cycles int64
				for _, blk := range blocks {
					rt.PrepareBlock(blk.Insts)
					d := bld.Build(blk, m, rt)
					cycles += int64(al.Run(d, m).Cycles)
				}
				if cycles <= 0 {
					b.Fatal("no cycles")
				}
			}
		})
	}
}

func BenchmarkTable3Structure(b *testing.B) {
	for _, p := range synth.Profiles() {
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				blocks := p.Generate()
				s := block.Measure(blocks, func(blk *block.Block) int {
					return resource.UniqueMemExprs(blk.Insts)
				})
				if s.Insts != p.Insts {
					b.Fatalf("structure drifted: %d insts", s.Insts)
				}
			}
		})
	}
}

func BenchmarkTable4N2(b *testing.B) {
	ap := tables.Approaches()[0]
	for _, name := range table4Names {
		b.Run(name, func(b *testing.B) {
			runApproach(b, benchSets[name], ap)
		})
	}
}

func BenchmarkTable5TableFwd(b *testing.B) {
	ap := tables.Approaches()[1]
	for _, name := range table5Names {
		b.Run(name, func(b *testing.B) {
			runApproach(b, benchSets[name], ap)
		})
	}
}

func BenchmarkTable5TableBwd(b *testing.B) {
	ap := tables.Approaches()[2]
	for _, name := range table5Names {
		b.Run(name, func(b *testing.B) {
			runApproach(b, benchSets[name], ap)
		})
	}
}

// BenchmarkIntermediatePass quantifies conclusion 4: the level
// algorithm buys nothing over a reverse walk of the instruction list.
func BenchmarkIntermediatePass(b *testing.B) {
	m := machine.Pipe1()
	blocks := benchSets["fpppp"]
	rt := resource.NewTable(resource.MemExprModel)
	var dags []*dag.DAG
	for _, blk := range blocks {
		rt.PrepareBlock(blk.Insts)
		dags = append(dags, dag.TableForward{}.Build(blk, m, rt))
	}
	b.Run("reverse-walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, d := range dags {
				heur.New(d, m).ComputeBackward()
			}
		}
	})
	b.Run("level-lists", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, d := range dags {
				heur.New(d, m).ComputeBackwardLevelLists()
			}
		}
	})
}

// BenchmarkPairing quantifies conclusion 6: pairing a DAG-construction
// direction with an opposite-direction scheduling pass makes no
// measurable difference; both feed the same forward scheduler here.
func BenchmarkPairing(b *testing.B) {
	blocks := benchSets["nasa7"]
	b.Run("fwd-construction", func(b *testing.B) {
		runApproach(b, blocks, tables.Approaches()[1])
	})
	b.Run("bwd-construction", func(b *testing.B) {
		runApproach(b, blocks, tables.Approaches()[2])
	})
}

// BenchmarkLandskovAblation quantifies conclusion 3's trade-off: what
// transitive-arc avoidance costs to build, next to plain table building
// (which keeps the timing-relevant arcs for free).
func BenchmarkLandskovAblation(b *testing.B) {
	m := machine.Pipe1()
	blocks := benchSets["tomcatv"]
	for _, bld := range []dag.Builder{
		dag.TableForward{}, dag.Landskov{}, dag.TableBackward{PreventTransitive: true},
	} {
		b.Run(bld.Name(), func(b *testing.B) {
			rt := resource.NewTable(resource.MemExprModel)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arcs := 0
				for _, blk := range blocks {
					rt.PrepareBlock(blk.Insts)
					arcs += bld.Build(blk, m, rt).NumArcs
				}
				if arcs <= 0 {
					b.Fatal("no arcs")
				}
			}
		})
	}
}

// BenchmarkWindowSweepN2 sweeps the instruction window under the n²
// approach on fpppp, the experiment behind Section 6's advice that "an
// instruction window size ... of no more than 300-400 instructions
// should be maintained" for n² to stay practical. Cost grows roughly
// linearly in the window (quadratic per block × inversely fewer
// blocks).
func BenchmarkWindowSweepN2(b *testing.B) {
	p, _ := synth.ByName("fpppp")
	ap := tables.Approaches()[0]
	for _, w := range []int{100, 200, 400, 800, 1600} {
		blocks := p.GenerateWindowed(w)
		b.Run(windowName(w), func(b *testing.B) {
			runApproach(b, blocks, ap)
		})
	}
}

func windowName(w int) string {
	switch w {
	case 100:
		return "w100"
	case 200:
		return "w200"
	case 400:
		return "w400"
	case 800:
		return "w800"
	}
	return "w1600"
}

// BenchmarkMemoryModels compares Section 2's disambiguation policies:
// per-expression (the paper's), per-storage-class (Warren's
// observation), and single-resource serialization. Finer models build
// fewer arcs and schedule tighter code.
func BenchmarkMemoryModels(b *testing.B) {
	m := machine.Pipe1()
	blocks := benchSets["lloops"]
	for _, mm := range []resource.MemModel{
		resource.MemExprModel, resource.MemClassModel, resource.MemSingleModel,
	} {
		b.Run(mm.String(), func(b *testing.B) {
			rt := resource.NewTable(mm)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arcs := 0
				for _, blk := range blocks {
					rt.PrepareBlock(blk.Insts)
					arcs += dag.TableForward{}.Build(blk, m, rt).NumArcs
				}
				b.ReportMetric(float64(arcs)/float64(len(blocks)), "arcs/block")
			}
		})
	}
}

// BenchmarkReservation times the Section 1 reservation-table scheduler
// against the in-order list scheduler on the FPU machine, where
// structural hazards are what the table exists to pack around.
func BenchmarkReservation(b *testing.B) {
	m := machine.FPU()
	blocks := benchSets["linpack"]
	rt := resource.NewTable(resource.MemExprModel)
	var dags []*dag.DAG
	for _, blk := range blocks {
		rt.PrepareBlock(blk.Insts)
		dags = append(dags, dag.TableForward{}.Build(blk, m, rt))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cycles int64
		for _, d := range dags {
			cycles += int64(sched.ReservationDefault(d, m).Cycles)
		}
		if cycles <= 0 {
			b.Fatal("no cycles")
		}
	}
}

// BenchmarkRenaming measures the register-renaming prepass: how fast
// it runs over a full benchmark and (via the reported metric) how many
// false-dependence arcs it deletes per block on lloops.
func BenchmarkRenaming(b *testing.B) {
	m := machine.Pipe1()
	blocks := benchSets["lloops"]
	rt := resource.NewTable(resource.MemExprModel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var removed int64
		for _, blk := range blocks {
			rt.PrepareBlock(blk.Insts)
			before := dag.TableForward{}.Build(blk, m, rt).NumArcs
			ren := rename.Block(blk.Insts)
			nb := *blk
			nb.Insts = ren.Insts
			rt.PrepareBlock(nb.Insts)
			after := dag.TableForward{}.Build(&nb, m, rt).NumArcs
			removed += int64(before - after)
		}
		b.ReportMetric(float64(removed)/float64(len(blocks)), "arcs-removed/block")
	}
}

// BenchmarkDelaySlotFill measures the control-hazard pass over a
// reassembled benchmark program.
func BenchmarkDelaySlotFill(b *testing.B) {
	var prog []isa.Inst
	for _, blk := range benchSets["grep"] {
		prog = append(prog, blk.Insts...)
		if blk.EndsInCTI() {
			prog = append(prog, isa.Nop())
		}
	}
	m := machine.Pipe1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := delayslot.Fill(prog, m, resource.MemExprModel)
		if r.Filled == 0 {
			b.Fatal("nothing filled")
		}
	}
}

// BenchmarkLoadLatencySweep characterizes how the value of scheduling
// scales with memory latency (a "which attributes" companion to the
// future-work studies): the reported metric is the percentage of
// cycles Krishnamurthy's scheduler saves over program order on lloops
// as load latency deepens. On the large FP blocks the savings grow
// with latency; on tiny system-code blocks (swap in "dfa") they do not
// — there is nothing to cover the deeper delay slots with, the same
// size effect the winners-by-size study shows.
func BenchmarkLoadLatencySweep(b *testing.B) {
	loads := []isa.Opcode{isa.LD, isa.LDUB, isa.LDSB, isa.LDUH, isa.LDSH,
		isa.LDF, isa.LDD, isa.LDDF}
	for _, lat := range []int{2, 3, 4, 6} {
		name := map[int]string{2: "lat2", 3: "lat3", 4: "lat4", 6: "lat6"}[lat]
		b.Run(name, func(b *testing.B) {
			m := machine.Pipe1()
			for _, op := range loads {
				m.SetLatency(op, lat)
			}
			al := sched.Krishnamurthy()
			blocks := benchSets["lloops"]
			rt := resource.NewTable(resource.MemExprModel)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var base, scheduled int64
				for _, blk := range blocks {
					rt.PrepareBlock(blk.Insts)
					d := al.Builder().Build(blk, m, rt)
					base += int64(sched.InOrder(d, m).Cycles)
					scheduled += int64(al.Run(d, m).Cycles)
				}
				b.ReportMetric(100*float64(base-scheduled)/float64(base), "%saved")
			}
		})
	}
}

// BenchmarkBranchAndBound times the future-work optimal scheduler on
// paper-scale small blocks (grep's basic blocks average 2.4
// instructions; anything up to 12 is in easy reach).
func BenchmarkBranchAndBound(b *testing.B) {
	m := machine.Pipe1()
	var small []*block.Block
	for _, blk := range benchSets["grep"] {
		if blk.Len() <= 12 {
			small = append(small, blk)
		}
		if len(small) == 200 {
			break
		}
	}
	rt := resource.NewTable(resource.MemExprModel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range small {
			rt.PrepareBlock(blk.Insts)
			d := dag.TableForward{}.Build(blk, m, rt)
			if r := sched.BranchAndBound(d, m); r.Cycles < 0 {
				b.Fatal("bad result")
			}
		}
	}
}
