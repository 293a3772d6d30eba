// Package tables regenerates the tables and the figure of Smotherman
// et al. (MICRO-24, 1991): the heuristic survey (Table 1), the
// algorithm analysis (Table 2), benchmark structure (Table 3), and the
// DAG-construction comparison (Tables 4 and 5), plus the Figure 1
// transitive-arc demonstration. cmd/schedbench, cmd/heursurvey and the
// repository's benchmarks are thin wrappers over this package.
package tables

import (
	"fmt"
	"strings"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/heur"
	"daginsched/internal/isa"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/sched"
	"daginsched/internal/synth"
)

// Approach is one of the three Section 6 pipelines: a construction
// algorithm paired with a simple forward scheduling pass over "max path
// to leaf, max delay to leaf, and max delay to child".
type Approach struct {
	Name    string
	Builder dag.Builder
	// Fused marks the third approach: backward static heuristics are
	// computed during backward construction, eliminating the separate
	// child-revisiting pass.
	Fused bool
}

// Approaches returns the paper's three Section 6 approaches in order:
// n² forward (Warren-like), table-building forward (Krishnamurthy-
// like), table-building backward.
func Approaches() []Approach {
	return []Approach{
		{Name: "n**2 forward", Builder: dag.N2Forward{}},
		{Name: "table forward", Builder: dag.TableForward{}},
		{Name: "table backward", Builder: dag.TableBackward{}, Fused: true},
	}
}

// section6Selector is the Section 6 scheduling pass's heuristic order.
func section6Selector() sched.Selector {
	return sched.Winnow(sched.Section6Ranked())
}

// RunStats is one Table 4 / Table 5 row.
type RunStats struct {
	Benchmark   string
	Approach    string
	Seconds     float64 // averaged scheduling time, paper's "run time"
	ChildrenMax int     // max #children of any instruction
	ChildrenAvg float64 // arcs per instruction
	ArcsMax     int     // most arcs in one basic block
	ArcsAvg     float64 // arcs per basic block
	Cycles      int64   // total scheduled cycles across all blocks
}

// Run executes one approach over a block set: for every block it
// prepares the resource table, constructs the DAG, computes the static
// heuristics (inline for the fused approach, as a separate backward
// pass otherwise) and runs the forward scheduling pass. The reported
// time is the average of `runs` full executions, mirroring the paper's
// five-run averages of user+sys time.
func Run(name string, blocks []*block.Block, ap Approach, m *machine.Model, runs int) RunStats {
	st := RunStats{Benchmark: name, Approach: ap.Name}
	if runs < 1 {
		runs = 1
	}
	var elapsed time.Duration
	for r := 0; r < runs; r++ {
		rt := resource.NewTable(resource.MemExprModel)
		start := time.Now()
		collect := r == 0
		for _, b := range blocks {
			rt.PrepareBlock(b.Insts)
			var d *dag.DAG
			a := heur.New(nil, m)
			if ap.Fused {
				obs := &heur.FusedBackward{A: a, ComputeLocals: true}
				d = dag.TableBackward{Observer: obs}.Build(b, m, rt)
				a.D = d
			} else {
				d = ap.Builder.Build(b, m, rt)
				a.D = d
				a.ComputeBackward()
				a.ComputeLocal()
			}
			res := sched.Forward(d, m, a, section6Selector())
			if collect {
				st.Cycles += int64(res.Cycles)
				if d.NumArcs > st.ArcsMax {
					st.ArcsMax = d.NumArcs
				}
				st.ArcsAvg += float64(d.NumArcs)
				for i := range d.Nodes {
					if c := d.Nodes[i].NumChildren(); c > st.ChildrenMax {
						st.ChildrenMax = c
					}
				}
				st.ChildrenAvg += float64(d.NumArcs)
			}
		}
		elapsed += time.Since(start)
	}
	st.Seconds = elapsed.Seconds() / float64(runs)
	var insts int
	for _, b := range blocks {
		insts += b.Len()
	}
	if len(blocks) > 0 {
		st.ArcsAvg /= float64(len(blocks))
	}
	if insts > 0 {
		st.ChildrenAvg /= float64(insts)
	}
	return st
}

// Table1 renders the heuristic survey from the live registry.
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1. Various heuristics\n\n")
	fmt.Fprintf(&b, "%-16s %-42s %-7s %-5s %s\n", "category", "heuristic", "kind", "pass", "transitive-sensitive")
	fmt.Fprintln(&b, strings.Repeat("-", 92))
	for c := 0; c < heur.NumCategories; c++ {
		for _, d := range heur.ByCategory(heur.Category(c)) {
			kind := "rel"
			if d.Timing {
				kind = "timing"
			}
			mark := ""
			if d.TransitiveSensitive {
				mark = "**"
			}
			fmt.Fprintf(&b, "%-16s %-42s %-7s %-5s %s\n",
				heur.Category(c), d.Name, kind, d.Pass, mark)
		}
	}
	return b.String()
}

// Table2 renders the six-algorithm analysis from the live configurations.
func Table2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2. Various scheduling algorithms\n\n")
	for _, al := range sched.Table2() {
		fmt.Fprintf(&b, "%s\n", al.Cite)
		cons := "n.g."
		if al.Construction != nil {
			cons = fmt.Sprintf("%s (%s pass)", al.Construction.Name(), al.Construction.Direction())
		}
		fmt.Fprintf(&b, "  dag construction: %s\n", cons)
		schedPass := al.SchedDir.String()
		if al.Postpass {
			schedPass += "+postpass"
		}
		fmt.Fprintf(&b, "  scheduling pass:  %s (%s)\n", schedPass, al.Combine)
		for rank, rk := range al.Ranked {
			dir := ""
			if rk.Min {
				dir = " (inverse)"
			}
			fmt.Fprintf(&b, "    %d. %s%s\n", rank+1, rk.Key, dir)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// BenchmarkSet is one Table 3 row's worth of blocks: a named benchmark,
// possibly windowed.
type BenchmarkSet struct {
	Name   string
	Blocks []*block.Block
}

// Table3Sets generates every Table 3 benchmark, including the windowed
// fpppp rows.
func Table3Sets() []BenchmarkSet {
	var out []BenchmarkSet
	for _, p := range synth.Profiles() {
		if p.Name == "fpppp" {
			for _, w := range []int{1000, 2000, 4000} {
				out = append(out, BenchmarkSet{
					Name:   fmt.Sprintf("fpppp-%d", w),
					Blocks: p.GenerateWindowed(w),
				})
			}
		}
		out = append(out, BenchmarkSet{Name: p.Name, Blocks: p.Generate()})
	}
	return out
}

// Table3 renders the structural data table.
func Table3(sets []BenchmarkSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3. Structural data for benchmarks independent of approach\n\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %12s %12s %10s %10s\n",
		"benchmark", "#blocks", "#insts", "insts/b max", "insts/b avg", "mem max", "mem avg")
	fmt.Fprintln(&b, strings.Repeat("-", 78))
	for _, set := range sets {
		s := block.Measure(set.Blocks, func(bb *block.Block) int {
			return resource.UniqueMemExprs(bb.Insts)
		})
		fmt.Fprintf(&b, "%-12s %8d %8d %12d %12.2f %10d %10.2f\n",
			set.Name, s.Blocks, s.Insts, s.MaxBlockLen, s.AvgBlockLen,
			s.MaxUniqueMem, s.AvgUniqueMem)
	}
	return b.String()
}

// Table4 runs the n² approach over the given sets and renders the
// timing/structure table. The paper restricted n² to fpppp-1000 at most
// ("excessive time and space requirements"); callers choose the sets.
func Table4(sets []BenchmarkSet, m *machine.Model, runs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4. Scheduling run times and structural data for n**2 approach\n\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s %10s\n",
		"benchmark", "time(s)", "child max", "child avg", "arcs max", "arcs avg")
	fmt.Fprintln(&b, strings.Repeat("-", 68))
	ap := Approaches()[0]
	for _, set := range sets {
		st := Run(set.Name, set.Blocks, ap, m, runs)
		fmt.Fprintf(&b, "%-12s %10.3f %10d %10.2f %10d %10.2f\n",
			set.Name, st.Seconds, st.ChildrenMax, st.ChildrenAvg, st.ArcsMax, st.ArcsAvg)
	}
	return b.String()
}

// Table5 runs both table-building approaches over the sets.
func Table5(sets []BenchmarkSet, m *machine.Model, runs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5. Scheduling run times and structural data for table-building approaches\n\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s %10s %10s\n",
		"benchmark", "fwd(s)", "bwd(s)", "child max", "child avg", "arcs max", "arcs avg")
	fmt.Fprintln(&b, strings.Repeat("-", 80))
	aps := Approaches()
	for _, set := range sets {
		fwd := Run(set.Name, set.Blocks, aps[1], m, runs)
		bwd := Run(set.Name, set.Blocks, aps[2], m, runs)
		fmt.Fprintf(&b, "%-12s %10.3f %10.3f %10d %10.2f %10d %10.2f\n",
			set.Name, fwd.Seconds, bwd.Seconds,
			fwd.ChildrenMax, fwd.ChildrenAvg, fwd.ArcsMax, fwd.ArcsAvg)
	}
	return b.String()
}

// ScalingTable times DAG construction alone on single blocks of
// growing size — the asymptotics behind Tables 4 and 5, isolated from
// scheduling: n² is quadratic in block length, table building linear.
// Synthetic blocks are drawn in the fpppp style (FP mix) so dependence
// density is realistic.
func ScalingTable(m *machine.Model, sizes []int, runs int) string {
	if len(sizes) == 0 {
		sizes = []int{50, 100, 200, 400, 800, 1600, 3200}
	}
	if runs < 1 {
		runs = 1
	}
	p, _ := synth.ByName("fpppp")
	var b strings.Builder
	fmt.Fprintf(&b, "DAG construction scaling (single block, %d-run averages)\n\n", runs)
	fmt.Fprintf(&b, "%8s %12s %12s %12s %10s\n", "insts", "n2f", "tablef", "tableb", "n2/table")
	fmt.Fprintln(&b, strings.Repeat("-", 60))
	for _, n := range sizes {
		blk := synthBlock(p, n)
		times := make([]float64, 3)
		for bi, bld := range []dag.Builder{dag.N2Forward{}, dag.TableForward{}, dag.TableBackward{}} {
			rt := resource.NewTable(resource.MemExprModel)
			start := time.Now()
			for r := 0; r < runs; r++ {
				rt.PrepareBlock(blk.Insts)
				bld.Build(blk, m, rt)
			}
			times[bi] = time.Since(start).Seconds() / float64(runs)
		}
		ratio := times[0] / ((times[1] + times[2]) / 2)
		fmt.Fprintf(&b, "%8d %12.6f %12.6f %12.6f %9.1fx\n",
			n, times[0], times[1], times[2], ratio)
	}
	return b.String()
}

// synthBlock carves one n-instruction block from a profile-styled
// generation (windowing the big fpppp block down to the wanted size).
func synthBlock(p synth.Profile, n int) *block.Block {
	for _, blk := range p.GenerateWindowed(n) {
		if blk.Len() == n {
			return blk
		}
	}
	// Fall back to the largest available block.
	blocks := p.Generate()
	return blocks[0]
}

// QualityTable compares the six Table 2 algorithms by schedule quality
// — total cycles and percentage saved versus program order — across
// the given benchmarks on one machine model. The paper characterizes
// the algorithms but does not race them; this extension experiment
// answers the natural follow-up question.
func QualityTable(sets []BenchmarkSet, m *machine.Model) string {
	algos := append(sched.Table2(), sched.SchlanskerVLIW())
	var b strings.Builder
	fmt.Fprintf(&b, "Scheduling quality: %% cycles saved vs program order (machine %s)\n\n", m.Name)
	fmt.Fprintf(&b, "%-12s %9s", "benchmark", "baseline")
	for _, al := range algos {
		fmt.Fprintf(&b, " %12s", shortName(al.Name))
	}
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, strings.Repeat("-", 22+13*len(algos)))
	for _, set := range sets {
		rt := resource.NewTable(resource.MemExprModel)
		var base int64
		saved := make([]int64, len(algos))
		for _, blk := range set.Blocks {
			dags := buildShared(algos, blk, m, rt)
			for ai, al := range algos {
				d := dags[ai]
				r := al.Run(d, m)
				if ai == 0 {
					base += int64(sched.InOrder(d, m).Cycles)
				}
				// Re-time every emitted order under the machine's
				// in-order issue model so sequence-emitting and
				// time-indexed (reservation) algorithms are compared
				// on equal footing. For the sequential algorithms this
				// reproduces their own clock exactly.
				saved[ai] += int64(sched.Timed(d, m, r.Order).Cycles)
			}
		}
		fmt.Fprintf(&b, "%-12s %9d", set.Name, base)
		for ai := range algos {
			pct := 100 * float64(base-saved[ai]) / float64(base)
			fmt.Fprintf(&b, " %11.1f%%", pct)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// buildShared prepares rt for blk and returns each algorithm's DAG of
// blk. Each distinct construction (keyed by Builder().Name()) builds
// once, and the algorithms that use it share the DAG: a built DAG is
// immutable, and scheduling only freezes it.
func buildShared(algos []*sched.Algorithm, blk *block.Block, m *machine.Model, rt *resource.Table) []*dag.DAG {
	rt.PrepareBlock(blk.Insts)
	built := map[string]*dag.DAG{}
	dags := make([]*dag.DAG, len(algos))
	for ai, al := range algos {
		bld := al.Builder()
		if built[bld.Name()] == nil {
			built[bld.Name()] = bld.Build(blk, m, rt)
		}
		dags[ai] = built[bld.Name()]
	}
	return dags
}

func shortName(name string) string {
	switch name {
	case "gibbons-muchnick":
		return "gibbons"
	case "krishnamurthy":
		return "krishnamur."
	case "shieh-papachristou":
		return "shieh"
	}
	return name
}

// Figure1 renders the transitive-arc demonstration: the three-
// instruction block, its arcs under a retaining builder and under the
// two transitive-arc avoiders, and the resulting max-delay-to-leaf and
// EST values.
func Figure1(m *machine.Model) string {
	insts := Figure1Block()
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1. Importance of transitive arcs\n\n")
	for i := range insts {
		fmt.Fprintf(&b, "  %d: %s   (%d cycles)\n", i+1, insts[i].String(), m.Latency(insts[i].Op))
	}
	fmt.Fprintln(&b)
	for _, bld := range []dag.Builder{dag.TableForward{}, dag.Landskov{},
		dag.TableBackward{PreventTransitive: true}} {
		blk := &block.Block{Name: "fig1"}
		blk.Insts = append(blk.Insts, insts...)
		rt := resource.NewTable(resource.MemExprModel)
		rt.PrepareBlock(blk.Insts)
		d := bld.Build(blk, m, rt)
		a := heur.New(d, m)
		a.ComputeBackward()
		a.ComputeForward()
		fmt.Fprintf(&b, "%s:\n", bld.Name())
		for i := range d.Nodes {
			for _, arc := range d.Nodes[i].Succs {
				fmt.Fprintf(&b, "  arc %d->%d %s delay %d\n", arc.From+1, arc.To+1, arc.Kind, arc.Delay)
			}
		}
		fmt.Fprintf(&b, "  max delay to leaf(1) = %d, EST(3) = %d\n\n",
			a.MaxDelayToLeaf[0], a.EST[2])
	}
	return b.String()
}

// Figure1Block returns the paper's Figure 1 instruction sequence
// (DIVF R1,R2,R3; ADDF R4,R5,R1; ADDF R1,R3,R6) in this ISA: a
// 20-cycle divide, a 4-cycle add overwriting one divide source, and a
// 4-cycle add consuming both results.
func Figure1Block() []isa.Inst {
	return []isa.Inst{
		isa.Fp3(isa.FDIVS, isa.F(1), isa.F(2), isa.F(3)),
		isa.Fp3(isa.FADDS, isa.F(4), isa.F(5), isa.F(1)),
		isa.Fp3(isa.FADDS, isa.F(1), isa.F(3), isa.F(6)),
	}
}
