package sched

import (
	"slices"
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/heur"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/testgen"
)

// readyListDAG builds one mid-sized block the way the batch engine
// does, returning the DAG plus a ready annotation set.
func readyListDAG(tb testing.TB, m *machine.Model) (*dag.DAG, *heur.Annot) {
	b := &block.Block{Name: "bench", Insts: testgen.Block(4242, 200)}
	for i := range b.Insts {
		b.Insts[i].Index = i
	}
	rt := resource.NewTable(resource.MemExprModel)
	rt.PrepareBlock(b.Insts)
	d := dag.TableBackward{}.Build(b, m, rt)
	d.Freeze()
	a := heur.New(d, m)
	a.ComputeFusedCSR()
	return d, a
}

// BenchmarkForwardReadyList times the forward scheduler's hot loop:
// the packed successor walk that decrements unscheduled-parent counts
// and admits newly ready nodes. It recycles one Scratch, so steady
// state is 0 allocs/op.
func BenchmarkForwardReadyList(b *testing.B) {
	m := machine.Pipe1()
	d, a := readyListDAG(b, m)
	var sel Selector = Winnow(Section6Ranked())
	var sc Scratch
	want := sc.Forward(d, m, a, sel).Cycles
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sc.Forward(d, m, a, sel).Cycles != want {
			b.Fatal("schedule diverged across runs")
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*float64(d.NumArcs)/secs, "arcs/sec")
	}
}

// wideDelayDAG hand-builds a complete DAG over a generated block with
// every arc delay past 16 bits: 257 nodes give 32,896 wide arcs, twice
// that across the two CSR halves. It returns the arcs too, for an
// oracle that reads no DAG code.
func wideDelayDAG() (*dag.DAG, []dag.Arc) {
	const n = 257
	b := &block.Block{Name: "wide", Insts: testgen.Block(31, n)}
	d := &dag.DAG{Block: b, Builder: "hand", Nodes: make([]dag.Node, n)}
	var arcs []dag.Arc
	for i := range b.Insts {
		b.Insts[i].Index = i
		d.Nodes[i].Inst = &b.Insts[i]
	}
	for from := int32(0); from < n; from++ {
		for to := from + 1; to < n; to++ {
			arc := dag.Arc{From: from, To: to, Kind: dag.RAW, Delay: 1<<16 + from%7}
			d.Nodes[from].Succs = append(d.Nodes[from].Succs, arc)
			arcs = append(arcs, arc)
		}
	}
	d.NumArcs = len(arcs)
	return d, arcs
}

// TestPackedWideDelaysFreeze runs the engine's frozen pipeline
// (Freeze, ComputeFusedCSR, Scratch.Forward) on a complete DAG whose
// every delay is past 16 bits. The DAG must freeze, and the packed
// pipeline must reproduce the annotations the arc-list passes compute on
// a second copy, and that copy's schedule; the to-leaf and child-delay
// values are also checked against a longest-path pass over the raw arc
// list.
func TestPackedWideDelaysFreeze(t *testing.T) {
	m := machine.Pipe1()
	d, arcs := wideDelayDAG()
	if d.Freeze() == nil {
		t.Fatal("Freeze left a wide-delay block unfrozen")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	a := heur.New(d, m)
	a.ComputeFusedCSR()
	var sc Scratch
	sel := Winnow(Section6Ranked())
	got := sc.Forward(d, m, a, sel)

	plain, _ := wideDelayDAG()
	ref := heur.New(plain, m)
	ref.ComputeBackward()
	ref.ComputeLocal()
	ref.PackSection6Prio()
	var refSc Scratch
	want := refSc.Forward(plain, m, ref, Winnow(Section6Ranked()))
	sameSchedule(t, "wide-delay", got, want)

	for _, pair := range [][2][]int32{
		{a.MaxPathToLeaf, ref.MaxPathToLeaf},
		{a.MaxDelayToLeaf, ref.MaxDelayToLeaf},
		{a.ExecTime, ref.ExecTime},
		{a.SumDelayChild, ref.SumDelayChild},
	} {
		if !slices.Equal(pair[0], pair[1]) {
			t.Fatal("packed annotations diverge from the arc-list passes")
		}
	}
	if !slices.Equal(a.InterlockChild, ref.InterlockChild) || a.PrioExact != ref.PrioExact ||
		(a.PrioExact && !slices.Equal(a.PackedPrio, ref.PackedPrio)) {
		t.Fatal("packed interlock flags or priority words diverge from the arc-list passes")
	}

	n := d.Len()
	pathToLeaf, delayToLeaf := make([]int32, n), make([]int32, n)
	sumChild := make([]int32, n)
	for k := len(arcs) - 1; k >= 0; k-- { // grouped by ascending From
		arc := arcs[k]
		pathToLeaf[arc.From] = max(pathToLeaf[arc.From], pathToLeaf[arc.To]+1)
		delayToLeaf[arc.From] = max(delayToLeaf[arc.From], delayToLeaf[arc.To]+arc.Delay)
		sumChild[arc.From] += arc.Delay
	}
	if !slices.Equal(a.MaxPathToLeaf, pathToLeaf) || !slices.Equal(a.MaxDelayToLeaf, delayToLeaf) ||
		!slices.Equal(a.SumDelayChild, sumChild) {
		t.Fatal("packed annotations disagree with the arc-list oracle")
	}
	if got.Cycles < delayToLeaf[0] {
		t.Fatalf("schedule completes in %d cycles, under the %d-cycle critical path", got.Cycles, delayToLeaf[0])
	}
}
