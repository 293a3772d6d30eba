package sched

import (
	"math"
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/heur"
	"daginsched/internal/isa"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/testgen"
)

func buildDAG(t testing.TB, bld dag.Builder, m *machine.Model, insts []isa.Inst) *dag.DAG {
	t.Helper()
	b := &block.Block{Name: "t", Insts: insts}
	for i := range b.Insts {
		b.Insts[i].Index = i
	}
	rt := resource.NewTable(resource.MemExprModel)
	rt.PrepareBlock(b.Insts)
	d := bld.Build(b, m, rt)
	if err := d.Validate(); err != nil {
		t.Fatalf("invalid DAG: %v", err)
	}
	return d
}

// loadStall is a block where naive order stalls on the load delay slot
// but an independent instruction can fill it.
func loadStall() []isa.Inst {
	return []isa.Inst{
		isa.Load(isa.LD, isa.FP, -4, isa.O0), // lat 2
		isa.RIR(isa.ADD, isa.O0, 1, isa.O1),  // stalls one cycle in order
		isa.MovI(5, isa.O2),                  // independent filler
	}
}

func TestInOrderBaselineStalls(t *testing.T) {
	m := machine.Pipe1()
	d := buildDAG(t, dag.TableForward{}, m, loadStall())
	r := InOrder(d, m)
	if r.Stalls(m) != 1 {
		t.Fatalf("in-order stalls = %d, want 1", r.Stalls(m))
	}
}

func TestAllAlgorithmsFillTheDelaySlot(t *testing.T) {
	// The forward algorithms must fill the load delay slot. The backward
	// algorithms (Tiemann, Schlansker) schedule positionally from the
	// leaves and cannot see forward stall slots — they must still be
	// legal and no worse than program order.
	for _, al := range Table2() {
		m := machine.Pipe1()
		d := buildDAG(t, al.Builder(), m, loadStall())
		r := al.Run(d, m)
		if !Legal(d, r) {
			t.Fatalf("%s: illegal schedule %v", al.Name, r.Order)
		}
		if al.SchedDir == dag.Forward {
			if r.Stalls(m) != 0 {
				t.Errorf("%s: stalls = %d (order %v), want 0", al.Name, r.Stalls(m), r.Order)
			}
		} else if base := InOrder(d, m); r.Cycles > base.Cycles {
			t.Errorf("%s: %d cycles, worse than in-order %d", al.Name, r.Cycles, base.Cycles)
		}
	}
}

func TestAllAlgorithmsProduceLegalSchedules(t *testing.T) {
	models := []*machine.Model{machine.Pipe1(), machine.FPU(), machine.Asym(), machine.Super2()}
	for seed := int64(0); seed < 15; seed++ {
		insts := testgen.Block(seed, 30)
		for _, m := range models {
			for _, al := range Table2() {
				d := buildDAG(t, al.Builder(), m, insts)
				r := al.Run(d, m)
				if !Legal(d, r) {
					t.Fatalf("%s on %s seed %d: illegal schedule", al.Name, m.Name, seed)
				}
				base := InOrder(d, m)
				if r.Cycles <= 0 || base.Cycles <= 0 {
					t.Fatalf("%s: nonpositive cycle counts", al.Name)
				}
			}
		}
	}
}

// TestCTIPinnedLast runs blocks that end in a CTI through every entry
// point that places one: a branch with parents, a root branch that
// could fill a load stall, a root branch after independent work, and a
// one-instruction block. The selectors prefer the CTI: its packed word
// is raised above every other node's, and the winnowing arms rank by
// highest program index. Each entry point must still leave it last.
func TestCTIPinnedLast(t *testing.T) {
	blocks := []struct {
		name  string
		insts []isa.Inst
	}{
		{"bne after cmp", append(loadStall(), isa.CmpI(isa.O1, 0), isa.Branch(isa.BNE, "L1"))},
		{"ba could fill a stall", append(loadStall()[:2], isa.Branch(isa.BA, "L1"))},
		{"root ba", append(loadStall(), isa.Branch(isa.BA, "L1"))},
		{"lone ba", []isa.Inst{isa.Branch(isa.BA, "L1")}},
	}
	m := machine.Pipe1()
	latestFirst := Winnow{{Key: heur.OriginalOrder}}
	for _, blk := range blocks {
		check := func(entry string, d *dag.DAG, r *Result) {
			t.Helper()
			if !Legal(d, r) || !CTILast(d, r) {
				t.Errorf("%s, %s: CTI not last or illegal: %v", blk.name, entry, r.Order)
			}
		}
		for _, al := range Table2() {
			d := buildDAG(t, al.Builder(), m, blk.insts)
			check(al.Name, d, al.Run(d, m))
		}
		d := buildDAG(t, dag.TableBackward{}, m, blk.insts)
		a := heur.New(d, m)
		a.ComputeFusedCSR()
		a.PackedPrio[d.Len()-1] = math.MaxUint64
		var sc Scratch
		check("Scratch.Forward heap", d, sc.Forward(d, m, a, Winnow(Section6Ranked())))
		if !sc.UsedPacked() {
			t.Errorf("%s: heap path not taken", blk.name)
		}
		check("Scratch.Forward winnow", d, sc.Forward(d, m, a, noFastPath{latestFirst}))
		check("ForwardWithCarry", d, ForwardWithCarry(d, m, a, latestFirst, &Carry{}))
		check("Backward", d, Backward(d, m, a, latestFirst))
		check("Reservation", d, Reservation(d, m, a, latestFirst))
		check("BranchAndBound", d, BranchAndBound(d, m))
		check("Fixup", d, Fixup(d, m, InOrder(d, m)))
	}
}

func TestTable2Shape(t *testing.T) {
	algos := Table2()
	if len(algos) != 6 {
		t.Fatalf("Table 2 has 6 algorithms, got %d", len(algos))
	}
	type row struct {
		dagDir  string // construction pass ("f", "b", or "" for n.g.)
		dagAlgo string
		sched   dag.Direction
		combine CombineKind
		rank1   heur.Key
		nKeys   int
		post    bool
	}
	want := map[string]row{
		"gibbons-muchnick":   {"b", "n2b", dag.Forward, WinnowKind, heur.InterlockWithPrev, 4, false},
		"krishnamurthy":      {"f", "tablef", dag.Forward, PriorityKind, heur.EarliestExecTime, 5, true},
		"schlansker":         {"", "", dag.Backward, PriorityKind, heur.Slack, 2, false},
		"shieh-papachristou": {"", "", dag.Forward, WinnowKind, heur.MaxDelayToLeaf, 5, false},
		"tiemann":            {"f", "tablef", dag.Backward, PriorityKind, heur.MaxDelayFromRoot, 3, false},
		"warren":             {"f", "n2f", dag.Forward, WinnowKind, heur.EarliestExecTime, 6, false},
	}
	for _, al := range algos {
		w, ok := want[al.Name]
		if !ok {
			t.Errorf("unexpected algorithm %q", al.Name)
			continue
		}
		if w.dagAlgo == "" {
			if al.Construction != nil {
				t.Errorf("%s: construction should be n.g.", al.Name)
			}
		} else if al.Construction == nil || al.Construction.Name() != w.dagAlgo ||
			al.Construction.Direction().String() != w.dagDir {
			t.Errorf("%s: construction %v, want %s/%s", al.Name, al.Construction, w.dagDir, w.dagAlgo)
		}
		if al.SchedDir != w.sched || al.Combine != w.combine {
			t.Errorf("%s: sched dir/combine wrong", al.Name)
		}
		if len(al.Ranked) != w.nKeys || al.Ranked[0].Key != w.rank1 {
			t.Errorf("%s: ranked keys %v", al.Name, al.Ranked)
		}
		if al.Postpass != w.post {
			t.Errorf("%s: postpass = %v", al.Name, al.Postpass)
		}
	}
}

func TestAlgorithmByName(t *testing.T) {
	if _, err := AlgorithmByName("warren"); err != nil {
		t.Error(err)
	}
	if _, err := AlgorithmByName("alphago"); err == nil {
		t.Error("unknown algorithm resolved")
	}
}

func TestPriorityMatchesWinnowSemantics(t *testing.T) {
	// Packing ranked fields into one priority value must give the same
	// pick as lexicographic winnowing (ties allowed to differ only when
	// the winnow tiebreak and priority tiebreak agree: both prefer the
	// smallest index).
	keys := []RankedKey{
		{Key: heur.MaxDelayToLeaf},
		{Key: heur.ExecTime},
		{Key: heur.NumChildren},
	}
	m := machine.Pipe1()
	for seed := int64(0); seed < 20; seed++ {
		insts := testgen.Block(seed, 25)
		d := buildDAG(t, dag.TableForward{}, m, insts)
		a := heur.New(d, m)
		a.ComputeLocal()
		a.ComputeBackward()
		rw := Forward(d, m, a, Winnow(keys))
		rp := Forward(d, m, a, Priority(keys))
		for i := range rw.Order {
			if rw.Order[i] != rp.Order[i] {
				t.Fatalf("seed %d: winnow %v != priority %v", seed, rw.Order, rp.Order)
			}
		}
	}
}

func TestPriorityFallbackBeyondFourKeys(t *testing.T) {
	keys := []RankedKey{
		{Key: heur.EarliestExecTime, Min: true},
		{Key: heur.FPUBusy, Min: true},
		{Key: heur.MaxPathToLeaf},
		{Key: heur.ExecTime},
		{Key: heur.MaxDelayToLeaf},
	}
	m := machine.FPU()
	insts := testgen.Block(42, 30)
	d := buildDAG(t, dag.TableForward{}, m, insts)
	a := heur.New(d, m)
	a.ComputeLocal()
	a.ComputeBackward()
	r := Forward(d, m, a, Priority(keys))
	if !Legal(d, r) {
		t.Fatal("five-key priority schedule illegal")
	}
}

func TestFixupNeverWorsens(t *testing.T) {
	m := machine.Pipe1()
	for seed := int64(0); seed < 25; seed++ {
		insts := testgen.Block(seed, 20)
		d := buildDAG(t, dag.TableForward{}, m, insts)
		base := InOrder(d, m)
		fixed := Fixup(d, m, base)
		if !Legal(d, fixed) {
			t.Fatalf("seed %d: fixup produced illegal schedule", seed)
		}
		if fixed.Cycles > base.Cycles {
			t.Fatalf("seed %d: fixup worsened %d -> %d", seed, base.Cycles, fixed.Cycles)
		}
	}
}

func TestFixupFillsASlot(t *testing.T) {
	// In-order schedule stalls after the load; fixup must hoist the mov.
	m := machine.Pipe1()
	d := buildDAG(t, dag.TableForward{}, m, loadStall())
	base := InOrder(d, m)
	fixed := Fixup(d, m, base)
	if fixed.Cycles >= base.Cycles {
		t.Fatalf("fixup did not improve: %d -> %d", base.Cycles, fixed.Cycles)
	}
	if fixed.Order[1] != 2 {
		t.Errorf("fixup order = %v, want the mov hoisted into slot 1", fixed.Order)
	}
}

// bruteForceOptimal enumerates every topological order (tiny blocks).
func bruteForceOptimal(d *dag.DAG, m *machine.Model) int32 {
	n := d.Len()
	best := int32(1 << 30)
	parents := make([]int, n)
	for i := 0; i < n; i++ {
		for _, arc := range d.Nodes[i].Succs {
			parents[arc.To]++
		}
	}
	order := make([]int32, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(order) == n {
			if c := Timed(d, m, order).Cycles; c < best {
				best = c
			}
			return
		}
		for i := 0; i < n; i++ {
			if used[i] || parents[i] != 0 {
				continue
			}
			used[i] = true
			order = append(order, int32(i))
			for _, arc := range d.Nodes[i].Succs {
				parents[arc.To]--
			}
			rec()
			for _, arc := range d.Nodes[i].Succs {
				parents[arc.To]++
			}
			order = order[:len(order)-1]
			used[i] = false
		}
	}
	rec()
	return best
}

func TestBranchAndBoundIsOptimal(t *testing.T) {
	m := machine.Pipe1()
	for seed := int64(0); seed < 12; seed++ {
		insts := testgen.Block(seed, 7)
		d := buildDAG(t, dag.TableForward{}, m, insts)
		want := bruteForceOptimal(d, m)
		r := BranchAndBound(d, m)
		if !Legal(d, r) {
			t.Fatalf("seed %d: illegal optimal schedule", seed)
		}
		if r.Cycles != want {
			t.Fatalf("seed %d: branch&bound %d cycles, brute force %d", seed, r.Cycles, want)
		}
	}
}

func TestBranchAndBoundNeverWorseThanHeuristics(t *testing.T) {
	m := machine.Pipe1()
	for seed := int64(100); seed < 112; seed++ {
		insts := testgen.Block(seed, 14)
		for _, al := range Table2() {
			d := buildDAG(t, al.Builder(), m, insts)
			hr := al.Run(d, m)
			opt := BranchAndBound(d, m)
			if opt.Cycles > hr.Cycles {
				t.Fatalf("seed %d: optimal %d worse than %s's %d",
					seed, opt.Cycles, al.Name, hr.Cycles)
			}
		}
	}
}

func TestBranchAndBoundSizeLimit(t *testing.T) {
	m := machine.Pipe1()
	d := buildDAG(t, dag.TableForward{}, m, testgen.Block(1, MaxBranchAndBound+1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic past MaxBranchAndBound")
		}
	}()
	BranchAndBound(d, m)
}

func TestFPUStructuralHazard(t *testing.T) {
	// Two independent divides on a single non-pipelined divider must
	// serialize; on the pipelined model they overlap.
	insts := []isa.Inst{
		isa.Fp3(isa.FDIVS, isa.F(1), isa.F(2), isa.F(3)),
		isa.Fp3(isa.FDIVS, isa.F(4), isa.F(5), isa.F(6)),
	}
	pipe := machine.Pipe1()
	dp := buildDAG(t, dag.TableForward{}, pipe, insts)
	rp := InOrder(dp, pipe)
	if rp.Cycles != 21 { // issue 0 and 1, finish 1+20
		t.Errorf("pipelined cycles = %d, want 21", rp.Cycles)
	}
	fpu := machine.FPU()
	df := buildDAG(t, dag.TableForward{}, fpu, insts)
	rf := InOrder(df, fpu)
	if rf.Cycles != 40 { // second divide waits for the unit: issue 20
		t.Errorf("non-pipelined cycles = %d, want 40", rf.Cycles)
	}
}

func TestSuperscalarDualIssue(t *testing.T) {
	// Independent integer + FP pairs dual-issue on super2.
	insts := []isa.Inst{
		isa.MovI(1, isa.O0),
		isa.Fp3(isa.FADDS, isa.F(1), isa.F(2), isa.F(3)),
		isa.MovI(2, isa.O1),
		isa.Fp3(isa.FADDS, isa.F(4), isa.F(5), isa.F(6)),
	}
	m := machine.Super2()
	d := buildDAG(t, dag.TableForward{}, m, insts)
	r := InOrder(d, m)
	if r.Issue[0] != 0 || r.Issue[1] != 0 || r.Issue[2] != 1 || r.Issue[3] != 1 {
		t.Errorf("dual-issue cycles = %v", r.Issue)
	}
	// Same-group instructions cannot share a cycle.
	ints := []isa.Inst{isa.MovI(1, isa.O0), isa.MovI(2, isa.O1)}
	d2 := buildDAG(t, dag.TableForward{}, m, ints)
	r2 := InOrder(d2, m)
	if r2.Issue[1] != 1 {
		t.Errorf("two IU ops issued same cycle: %v", r2.Issue)
	}
}

func TestAlternateTypePairsClasses(t *testing.T) {
	// Warren's alternate-type heuristic should interleave int/FP on the
	// superscalar machine: an int-int-fp-fp stream becomes pairable.
	insts := []isa.Inst{
		isa.MovI(1, isa.O0),
		isa.MovI(2, isa.O1),
		isa.Fp3(isa.FADDS, isa.F(1), isa.F(2), isa.F(3)),
		isa.Fp3(isa.FADDS, isa.F(4), isa.F(5), isa.F(6)),
	}
	m := machine.Super2()
	al := Warren()
	d := buildDAG(t, al.Builder(), m, insts)
	r := al.Run(d, m)
	if r.Cycles != 2+4-1 {
		t.Errorf("alternated schedule cycles = %d (order %v), want 5", r.Cycles, r.Order)
	}
	base := InOrder(d, m)
	if base.Cycles <= r.Cycles {
		t.Errorf("baseline (%d) should be worse than alternated (%d)", base.Cycles, r.Cycles)
	}
}

func TestTiemannBirthingPullsRAWParent(t *testing.T) {
	// Backward pass: after picking the last consumer, its RAW parent
	// gets a boost, shortening the register lifetime.
	insts := []isa.Inst{
		isa.MovI(1, isa.O0),                      // RAW parent of the add
		isa.MovI(2, isa.O1),                      // equal max-delay-to-root
		isa.RRR(isa.ADD, isa.O0, isa.O2, isa.O3), // consumer of %o0
	}
	m := machine.Pipe1()
	al := Tiemann()
	d := buildDAG(t, al.Builder(), m, insts)
	r := al.Run(d, m)
	if !Legal(d, r) {
		t.Fatal("illegal Tiemann schedule")
	}
	// Backward: add picked first (max delay from root); then birthing
	// boosts mov %o0 over mov %o1, so mov %o0 sits right before add.
	if r.Order[1] != 0 || r.Order[2] != 2 {
		t.Errorf("order = %v, want the RAW parent adjacent to its consumer", r.Order)
	}
}

func TestSchlanskerFollowsSlack(t *testing.T) {
	// The zero-slack divide chain must be scheduled first.
	insts := []isa.Inst{
		isa.MovI(3, isa.O5), // slackful
		isa.Fp3(isa.FDIVS, isa.F(1), isa.F(2), isa.F(3)), // critical
		isa.Fp3(isa.FADDS, isa.F(3), isa.F(1), isa.F(4)), // critical
	}
	m := machine.Pipe1()
	al := Schlansker()
	d := buildDAG(t, al.Builder(), m, insts)
	r := al.Run(d, m)
	// The backward pass picks zero-slack nodes first (fadds, then
	// fdivs), so the slackful mov is deferred to the earliest program
	// position: it must not separate the critical chain.
	if r.Order[1] != 1 || r.Order[2] != 2 {
		t.Errorf("order = %v, want the critical divide chain kept contiguous at the end", r.Order)
	}
}

func TestStateDynamicHeuristics(t *testing.T) {
	m := machine.Pipe1()
	insts := []isa.Inst{
		isa.Load(isa.LD, isa.FP, -4, isa.O0),     // 0: lat 2
		isa.RIR(isa.ADD, isa.O0, 1, isa.O1),      // 1: child of 0, delay 2
		isa.MovI(7, isa.O2),                      // 2: independent
		isa.RRR(isa.ADD, isa.O1, isa.O2, isa.O3), // 3: child of 1 and 2
	}
	d := buildDAG(t, dag.TableForward{}, m, insts)
	a := heur.New(d, m)
	a.ComputeLocal()
	s := newState(d, m, a)

	// Before anything is scheduled: node 0 uncovers nothing (delay-2
	// child), node 2 has one single-parent child... node 3 has two
	// unscheduled parents, so neither 1 nor 2 sees it as single-parent.
	if s.NumSingleParentChildren(0) != 1 {
		t.Errorf("single-parent children of 0 = %d, want 1", s.NumSingleParentChildren(0))
	}
	if s.NumUncoveredChildren(0) != 0 {
		t.Errorf("uncovered children of 0 = %d, want 0 (delay 2)", s.NumUncoveredChildren(0))
	}
	if s.NumSingleParentChildren(2) != 0 {
		t.Errorf("single-parent children of 2 = %d, want 0", s.NumSingleParentChildren(2))
	}
	if s.SumDelaysToSingleParentChildren(0) != 2 {
		t.Errorf("sum delays = %d, want 2", s.SumDelaysToSingleParentChildren(0))
	}

	s.place(0)
	if s.EET(1) != 2 {
		t.Errorf("EET(1) = %d after load, want 2", s.EET(1))
	}
	if !s.InterlocksWithPrev(1) {
		t.Error("add should interlock with the just-issued load")
	}
	if s.InterlocksWithPrev(2) {
		t.Error("independent mov should not interlock")
	}
	// After scheduling 2 as well, node 3 becomes single-parent of 1.
	s.place(2)
	if s.NumSingleParentChildren(1) != 1 || s.NumUncoveredChildren(1) != 1 {
		t.Errorf("node 1 uncover counts = %d/%d, want 1/1",
			s.NumSingleParentChildren(1), s.NumUncoveredChildren(1))
	}
}

func TestStallsSuperscalarIdeal(t *testing.T) {
	m := machine.Super2()
	insts := []isa.Inst{
		isa.MovI(1, isa.O0),
		isa.Fp3(isa.FADDS, isa.F(1), isa.F(2), isa.F(3)),
	}
	d := buildDAG(t, dag.TableForward{}, m, insts)
	r := InOrder(d, m)
	if r.Stalls(m) != 0 {
		t.Errorf("dual-issued pair should have 0 stalls, got %d", r.Stalls(m))
	}
}

func TestEmptyBlockScheduling(t *testing.T) {
	m := machine.Pipe1()
	d := buildDAG(t, dag.TableForward{}, m, nil)
	for _, al := range Table2() {
		r := al.Run(d, m)
		if len(r.Order) != 0 || r.Cycles != 0 {
			t.Errorf("%s: empty block mishandled", al.Name)
		}
	}
	if r := BranchAndBound(d, m); len(r.Order) != 0 {
		t.Error("branch&bound: empty block mishandled")
	}
}

func TestBackwardEqualsForwardLegality(t *testing.T) {
	// Backward scheduling with any key set must yield legal schedules.
	m := machine.Pipe1()
	for seed := int64(500); seed < 520; seed++ {
		insts := testgen.Block(seed, 22)
		d := buildDAG(t, dag.TableBackward{}, m, insts)
		a := heur.New(d, m)
		a.ComputeForward()
		r := Backward(d, m, a, Priority([]RankedKey{{Key: heur.MaxDelayFromRoot}}))
		if !Legal(d, r) {
			t.Fatalf("seed %d: illegal backward schedule", seed)
		}
	}
}

func TestCombineKindString(t *testing.T) {
	if WinnowKind.String() != "winnow" || PriorityKind.String() != "priority fn" {
		t.Error("combinator names wrong")
	}
}
