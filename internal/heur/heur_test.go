package heur

import (
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/isa"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/testgen"
)

func build(t *testing.T, bld dag.Builder, insts []isa.Inst) *dag.DAG {
	t.Helper()
	b := &block.Block{Name: "t", Insts: insts}
	for i := range b.Insts {
		b.Insts[i].Index = i
	}
	rt := resource.NewTable(resource.MemExprModel)
	rt.PrepareBlock(b.Insts)
	d := bld.Build(b, machine.Pipe1(), rt)
	if err := d.Validate(); err != nil {
		t.Fatalf("invalid DAG: %v", err)
	}
	return d
}

func figure1() []isa.Inst {
	return []isa.Inst{
		isa.Fp3(isa.FDIVS, isa.F(1), isa.F(2), isa.F(3)),
		isa.Fp3(isa.FADDS, isa.F(4), isa.F(5), isa.F(1)),
		isa.Fp3(isa.FADDS, isa.F(1), isa.F(3), isa.F(6)),
	}
}

func TestRegistryIsTable1(t *testing.T) {
	if len(Registry) != 26 {
		t.Fatalf("registry has %d heuristics, Table 1 has 26", len(Registry))
	}
	// Row counts per category, from Table 1.
	want := map[Category]int{
		StallBehavior: 4, InstClass: 2, CriticalPath: 7,
		Uncovering: 5, Structural: 4, RegisterUsage: 4,
	}
	for c, n := range want {
		if got := len(ByCategory(c)); got != n {
			t.Errorf("category %v has %d rows, want %d", c, got, n)
		}
	}
	// The "**" transitive-sensitive entries of Table 1.
	sensitive := map[Key]bool{
		EarliestExecTime: true, InterlockChild: true,
		EarliestStart: true, LatestStart: true, Slack: true,
		NumChildren: true, DelaysToChildren: true,
		NumParents: true, DelaysFromParents: true,
	}
	for _, d := range Registry {
		if d.TransitiveSensitive != sensitive[d.Key] {
			t.Errorf("%s: transitive-sensitive = %v, want %v",
				d.Key, d.TransitiveSensitive, sensitive[d.Key])
		}
	}
	// Pass codes for a sample of rows.
	passes := map[Key]Pass{
		InterlockWithPrev: PassV, ExecTime: PassA,
		MaxPathToLeaf: PassB, MaxPathFromRoot: PassF,
		EarliestStart: PassF, LatestStart: PassB, Slack: PassFB,
		NumUncovered: PassV, NumDescendants: PassB, Birthing: PassA,
	}
	for k, p := range passes {
		d, ok := ByKey(k)
		if !ok || d.Pass != p {
			t.Errorf("%s: pass = %v ok=%v, want %v", k, d.Pass, ok, p)
		}
	}
	keys := map[Key]bool{}
	for _, d := range Registry {
		if keys[d.Key] {
			t.Errorf("duplicate key %s", d.Key)
		}
		keys[d.Key] = true
	}
}

func TestByKeyUnknown(t *testing.T) {
	if _, ok := ByKey("nope"); ok {
		t.Error("unknown key resolved")
	}
	if _, ok := ByKey(OriginalOrder); ok {
		t.Error("original-order is a tiebreak, not a Table 1 row")
	}
}

func TestFigure1CriticalHeuristics(t *testing.T) {
	// With all arcs retained, node 1's max delay to a leaf is the full
	// 20-cycle divide; with the transitive arc removed (Landskov), the
	// WAR-then-RAW path understates it as 1+4 = 5 — the paper's Figure 1
	// argument.
	full := New(build(t, dag.TableForward{}, figure1()), machine.Pipe1()).ComputeAll()
	if full.MaxDelayToLeaf[0] != 20 {
		t.Errorf("full DAG: MaxDelayToLeaf[0] = %d, want 20", full.MaxDelayToLeaf[0])
	}
	if full.EST[2] != 20 {
		t.Errorf("full DAG: EST[2] = %d, want 20", full.EST[2])
	}
	pruned := New(build(t, dag.Landskov{}, figure1()), machine.Pipe1()).ComputeAll()
	if pruned.MaxDelayToLeaf[0] != 5 {
		t.Errorf("pruned DAG: MaxDelayToLeaf[0] = %d, want 5 (understated)", pruned.MaxDelayToLeaf[0])
	}
	if pruned.EST[2] != 5 {
		t.Errorf("pruned DAG: EST[2] = %d, want 5 (understated)", pruned.EST[2])
	}
}

func TestChainAnnotations(t *testing.T) {
	// ld (lat 2) -> add -> add chain.
	insts := []isa.Inst{
		isa.Load(isa.LD, isa.FP, -4, isa.O0),
		isa.RIR(isa.ADD, isa.O0, 1, isa.O1),
		isa.RIR(isa.ADD, isa.O1, 1, isa.O2),
	}
	a := New(build(t, dag.TableForward{}, insts), machine.Pipe1()).ComputeAll()

	if a.MaxPathToLeaf[0] != 2 || a.MaxPathToLeaf[1] != 1 || a.MaxPathToLeaf[2] != 0 {
		t.Errorf("MaxPathToLeaf = %v", a.MaxPathToLeaf)
	}
	if a.MaxDelayToLeaf[0] != 3 || a.MaxDelayToLeaf[1] != 1 {
		t.Errorf("MaxDelayToLeaf = %v", a.MaxDelayToLeaf)
	}
	if a.MaxPathFromRoot[2] != 2 || a.MaxDelayFromRoot[2] != 3 {
		t.Errorf("from-root = %v / %v", a.MaxPathFromRoot, a.MaxDelayFromRoot)
	}
	if a.EST[0] != 0 || a.EST[1] != 2 || a.EST[2] != 3 {
		t.Errorf("EST = %v", a.EST)
	}
	// Finish = EST[2] + 1 = 4; chain is fully critical: slack all zero.
	for i, s := range a.Slack {
		if s != 0 {
			t.Errorf("Slack[%d] = %d, want 0 on a pure chain", i, s)
		}
	}
	if !a.InterlockChild[0] || a.InterlockChild[1] {
		t.Errorf("InterlockChild = %v (load has a delay slot, add does not)", a.InterlockChild)
	}
	if a.ExecTime[0] != 2 || a.ExecTime[1] != 1 {
		t.Errorf("ExecTime = %v", a.ExecTime)
	}
	if a.NumDesc[0] != 2 || a.NumDesc[2] != 0 {
		t.Errorf("NumDesc = %v", a.NumDesc)
	}
	if a.SumExecDesc[0] != 2 {
		t.Errorf("SumExecDesc = %v", a.SumExecDesc)
	}
}

func TestSlackIdentifiesCriticalPath(t *testing.T) {
	// Diamond: a long FP chain and a short integer side branch.
	insts := []isa.Inst{
		isa.Fp3(isa.FDIVS, isa.F(1), isa.F(2), isa.F(3)), // critical
		isa.MovI(7, isa.O0), // slack
		isa.Fp3(isa.FADDS, isa.F(3), isa.F(2), isa.F(4)), // critical
	}
	a := New(build(t, dag.TableForward{}, insts), machine.Pipe1()).ComputeAll()
	if a.Slack[0] != 0 || a.Slack[2] != 0 {
		t.Errorf("critical chain slack = %d, %d", a.Slack[0], a.Slack[2])
	}
	if a.Slack[1] <= 0 {
		t.Errorf("independent mov should have positive slack, got %d", a.Slack[1])
	}
	if a.LST[1]+1 > a.EST[2]+4 { // mov may finish as late as block end
		t.Errorf("LST[1] = %d out of range", a.LST[1])
	}
}

func TestPhiDelays(t *testing.T) {
	// One parent with two children at different delays.
	insts := []isa.Inst{
		isa.Load(isa.LD, isa.FP, -4, isa.O0), // lat 2
		isa.RIR(isa.ADD, isa.O0, 1, isa.O1),  // RAW delay 2
		isa.Store(isa.ST, isa.O0, isa.FP, -8),
	}
	a := New(build(t, dag.TableForward{}, insts), machine.Pipe1()).ComputeAll()
	if a.SumDelayChild[0] != 4 {
		t.Errorf("delays to children: sum %d", a.SumDelayChild[0])
	}
	if a.SumDelayParent[1] != 2 {
		t.Errorf("delays from parents: sum %d", a.SumDelayParent[1])
	}
}

func TestLevelListsMatchReverseWalk(t *testing.T) {
	// Section 4 / conclusion 4: the level algorithm and the reverse walk
	// produce identical heuristics.
	for seed := int64(0); seed < 25; seed++ {
		d := build(t, dag.TableForward{}, testgen.Block(seed, 30))
		m := machine.Pipe1()
		walk := New(d, m)
		walk.ComputeBackward()
		lvl := New(d, m)
		lvl.ComputeBackwardLevelLists()
		for i := 0; i < d.Len(); i++ {
			if walk.MaxPathToLeaf[i] != lvl.MaxPathToLeaf[i] ||
				walk.MaxDelayToLeaf[i] != lvl.MaxDelayToLeaf[i] {
				t.Fatalf("seed %d node %d: walk (%d,%d) != levels (%d,%d)",
					seed, i, walk.MaxPathToLeaf[i], walk.MaxDelayToLeaf[i],
					lvl.MaxPathToLeaf[i], lvl.MaxDelayToLeaf[i])
			}
		}
	}
}

func TestLevelsWellFormed(t *testing.T) {
	d := build(t, dag.TableForward{}, testgen.Block(4, 20))
	ll := BuildLevels(d)
	counted := 0
	for lvl, nodes := range ll.Lists {
		for _, i := range nodes {
			counted++
			if ll.Level[i] != int32(lvl) {
				t.Fatalf("node %d in list %d but level %d", i, lvl, ll.Level[i])
			}
			for _, arc := range d.Nodes[i].Succs {
				if ll.Level[i] >= ll.Level[arc.To] {
					t.Fatalf("parent %d level %d >= child %d level %d",
						i, ll.Level[i], arc.To, ll.Level[arc.To])
				}
			}
		}
	}
	if counted != d.Len() {
		t.Fatalf("level lists hold %d nodes, want %d", counted, d.Len())
	}
}

func TestFusedBackwardMatchesSeparatePass(t *testing.T) {
	// The paper's third approach: heuristics computed during backward
	// construction must equal the separate intermediate pass.
	m := machine.Pipe1()
	for seed := int64(50); seed < 70; seed++ {
		insts := testgen.Block(seed, 25)
		fused := &FusedBackward{A: New(nil, m), ComputeLocals: true}
		b := &block.Block{Name: "t", Insts: insts}
		rt := resource.NewTable(resource.MemExprModel)
		rt.PrepareBlock(b.Insts)
		d := dag.TableBackward{Observer: fused}.Build(b, m, rt)

		sep := New(d, m)
		sep.ComputeBackward()
		sep.ComputeLocal()
		for i := 0; i < d.Len(); i++ {
			if fused.A.MaxPathToLeaf[i] != sep.MaxPathToLeaf[i] ||
				fused.A.MaxDelayToLeaf[i] != sep.MaxDelayToLeaf[i] ||
				fused.A.SumDelayChild[i] != sep.SumDelayChild[i] ||
				fused.A.InterlockChild[i] != sep.InterlockChild[i] {
				t.Fatalf("seed %d node %d: fused != separate", seed, i)
			}
		}
	}
}

func TestRegisterUsage(t *testing.T) {
	insts := []isa.Inst{
		isa.MovI(1, isa.O0),                      // born: o0 read later
		isa.MovI(2, isa.O1),                      // born: o1 read later
		isa.RRR(isa.ADD, isa.O0, isa.O1, isa.O2), // kills o0, o1; births o2
		isa.Store(isa.ST, isa.O2, isa.FP, -4),    // kills o2 (and fp? fp never dies: no, fp's last use is here)
	}
	a := New(build(t, dag.TableForward{}, insts), machine.Pipe1()).ComputeAll()
	if a.RegsBorn[0] != 1 || a.RegsBorn[1] != 1 {
		t.Errorf("RegsBorn = %v", a.RegsBorn)
	}
	if a.RegsKilled[2] != 2 {
		t.Errorf("RegsKilled[2] = %d, want 2", a.RegsKilled[2])
	}
	if a.RegsBorn[2] != 1 {
		t.Errorf("RegsBorn[2] = %d, want 1", a.RegsBorn[2])
	}
	// Store kills %o2 and is the last reader of %fp in the block.
	if a.RegsKilled[3] != 2 {
		t.Errorf("RegsKilled[3] = %d, want 2", a.RegsKilled[3])
	}
	if a.Liveness[2] != -1 {
		t.Errorf("Liveness[2] = %d, want -1 (net pressure drop)", a.Liveness[2])
	}
	// A dead definition (never read) is not a birth.
	dead := []isa.Inst{isa.MovI(9, isa.L5)}
	ad := New(build(t, dag.TableForward{}, dead), machine.Pipe1()).ComputeAll()
	if ad.RegsBorn[0] != 0 {
		t.Errorf("dead def counted as born: %v", ad.RegsBorn)
	}
}

func TestEmptyDAG(t *testing.T) {
	a := New(build(t, dag.TableForward{}, nil), machine.Pipe1()).ComputeAll()
	if len(a.EST) != 0 || len(a.MaxPathToLeaf) != 0 {
		t.Error("empty DAG should produce empty annotations")
	}
}

func TestSlackNonNegativeQuick(t *testing.T) {
	for seed := int64(300); seed < 330; seed++ {
		d := build(t, dag.TableForward{}, testgen.Block(seed, 20))
		a := New(d, machine.Pipe1())
		a.ComputeCritical()
		zero := false
		for i := 0; i < d.Len(); i++ {
			if a.Slack[i] < 0 {
				t.Fatalf("seed %d: Slack[%d] = %d < 0", seed, i, a.Slack[i])
			}
			if a.Slack[i] == 0 {
				zero = true
			}
			if a.LST[i] < a.EST[i] {
				t.Fatalf("seed %d: LST < EST at %d", seed, i)
			}
		}
		if d.Len() > 0 && !zero {
			t.Fatalf("seed %d: no node on the critical path", seed)
		}
	}
}

func TestDescendantsMatchBruteForce(t *testing.T) {
	for seed := int64(400); seed < 410; seed++ {
		d := build(t, dag.TableForward{}, testgen.Block(seed, 18))
		a := New(d, machine.Pipe1())
		a.ComputeDescendants()
		for i := 0; i < d.Len(); i++ {
			want := map[int32]bool{}
			var walk func(j int32)
			walk = func(j int32) {
				for _, arc := range d.Nodes[j].Succs {
					if !want[arc.To] {
						want[arc.To] = true
						walk(arc.To)
					}
				}
			}
			walk(int32(i))
			if int(a.NumDesc[i]) != len(want) {
				t.Fatalf("seed %d node %d: NumDesc %d, brute force %d",
					seed, i, a.NumDesc[i], len(want))
			}
		}
	}
}

func TestPassString(t *testing.T) {
	if PassA.String() != "a" || PassF.String() != "f" || PassB.String() != "b" ||
		PassFB.String() != "f+b" || PassV.String() != "v" {
		t.Error("pass codes wrong")
	}
}

func TestCategoryString(t *testing.T) {
	names := []string{"stall behavior", "inst. class", "critical path",
		"uncovering", "structural", "register usage"}
	for c := 0; c < NumCategories; c++ {
		if Category(c).String() != names[c] {
			t.Errorf("category %d name %q", c, Category(c).String())
		}
	}
}
