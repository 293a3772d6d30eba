package heur

import (
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/testgen"
)

// TestESTEqualsMaxDelayFromRoot documents a structural identity of this
// implementation: with arc-delay-based EST (which coincides with
// Schlansker's latency form on RAW arcs and stays exact on WAR arcs),
// EST and max-total-delay-from-root are the same recurrence. Table 1
// lists both because their *roles* differ — EST feeds LST and slack.
func TestESTEqualsMaxDelayFromRoot(t *testing.T) {
	m := machine.Pipe1()
	for seed := int64(0); seed < 20; seed++ {
		d := build(t, dag.TableForward{}, testgen.Block(seed, 25))
		a := New(d, m)
		a.ComputeForward()
		for i := 0; i < d.Len(); i++ {
			if a.EST[i] != a.MaxDelayFromRoot[i] {
				t.Fatalf("seed %d node %d: EST %d != MaxDelayFromRoot %d",
					seed, i, a.EST[i], a.MaxDelayFromRoot[i])
			}
		}
	}
}

// TestPrunedDAGUnderstatesTimingHeuristics generalizes Figure 1: on the
// transitive-arc-free DAG every timing heuristic can only shrink
// relative to the full DAG — never grow — because arcs were only
// removed.
func TestPrunedDAGUnderstatesTimingHeuristics(t *testing.T) {
	m := machine.Pipe1()
	for seed := int64(40); seed < 60; seed++ {
		insts := testgen.Block(seed, 22)
		full := New(build(t, dag.TableForward{}, insts), m).ComputeAll()
		pruned := New(build(t, dag.Landskov{}, insts), m).ComputeAll()
		for i := range full.EST {
			if pruned.EST[i] > full.EST[i] {
				t.Fatalf("seed %d node %d: pruned EST %d > full %d",
					seed, i, pruned.EST[i], full.EST[i])
			}
			if pruned.MaxDelayToLeaf[i] > full.MaxDelayToLeaf[i] {
				t.Fatalf("seed %d node %d: pruned MDTL grew", seed, i)
			}
			if pruned.MaxPathToLeaf[i] > full.MaxPathToLeaf[i] {
				t.Fatalf("seed %d node %d: pruned MPTL grew", seed, i)
			}
		}
	}
}

// TestDescendantsInsensitiveToTransitiveArcs: Table 1 does NOT mark
// #descendants as transitive-sensitive — removing transitive arcs must
// leave it unchanged, because reachability is unchanged.
func TestDescendantsInsensitiveToTransitiveArcs(t *testing.T) {
	m := machine.Pipe1()
	for seed := int64(70); seed < 85; seed++ {
		insts := testgen.Block(seed, 20)
		full := New(build(t, dag.N2Forward{}, insts), m)
		full.ComputeDescendants()
		pruned := New(build(t, dag.Landskov{}, insts), m)
		pruned.ComputeDescendants()
		for i := range full.NumDesc {
			if full.NumDesc[i] != pruned.NumDesc[i] {
				t.Fatalf("seed %d node %d: #descendants changed %d -> %d",
					seed, i, full.NumDesc[i], pruned.NumDesc[i])
			}
		}
	}
}

// TestChildrenSensitiveToTransitiveArcs: Table 1 DOES mark #children —
// "the number of children is artificially increased by each transitive
// arc" — so n² must exceed Landskov somewhere on dependence-dense blocks.
func TestChildrenSensitiveToTransitiveArcs(t *testing.T) {
	m := machine.Pipe1()
	grew := false
	for seed := int64(70); seed < 85; seed++ {
		insts := testgen.Block(seed, 20)
		full := build(t, dag.N2Forward{}, insts)
		pruned := build(t, dag.Landskov{}, insts)
		_ = m
		fc, pc := full.Freeze(), pruned.Freeze()
		for i := int32(0); int(i) < full.Len(); i++ {
			if fc.NumSuccs(i) > pc.NumSuccs(i) {
				grew = true
			}
			if fc.NumSuccs(i) < pc.NumSuccs(i) {
				t.Fatalf("seed %d node %d: n² has fewer children than landskov", seed, i)
			}
		}
	}
	if !grew {
		t.Fatal("no transitive-arc inflation observed; test inputs too sparse")
	}
}

// TestMaxPathFromRootMatchesLevels: the level number of Section 4's
// level algorithm is exactly max path length from root.
func TestMaxPathFromRootMatchesLevels(t *testing.T) {
	for seed := int64(90); seed < 100; seed++ {
		d := build(t, dag.TableForward{}, testgen.Block(seed, 25))
		a := New(d, machine.Pipe1())
		a.ComputeForward()
		ll := BuildLevels(d)
		for i := 0; i < d.Len(); i++ {
			if a.MaxPathFromRoot[i] != ll.Level[i] {
				t.Fatalf("seed %d node %d: MPFR %d != level %d",
					seed, i, a.MaxPathFromRoot[i], ll.Level[i])
			}
		}
	}
}

// TestFusedWithoutLocals: the observer variant that skips the add-arc
// heuristics must still fill the to-leaf values.
func TestFusedWithoutLocals(t *testing.T) {
	m := machine.Pipe1()
	insts := testgen.Block(11, 15)
	fused := &FusedBackward{A: New(nil, m)}
	b := &block.Block{Name: "t", Insts: insts}
	rt := resource.NewTable(resource.MemExprModel)
	rt.PrepareBlock(b.Insts)
	d := dag.TableBackward{Observer: fused}.Build(b, m, rt)
	if fused.A.MaxPathToLeaf == nil || fused.A.MaxDelayToLeaf == nil {
		t.Fatal("to-leaf heuristics missing")
	}
	if fused.A.ExecTime != nil {
		t.Fatal("locals computed despite ComputeLocals=false")
	}
	sep := New(d, m)
	sep.ComputeBackward()
	for i := 0; i < d.Len(); i++ {
		if fused.A.MaxDelayToLeaf[i] != sep.MaxDelayToLeaf[i] {
			t.Fatalf("node %d: fused %d != separate %d",
				i, fused.A.MaxDelayToLeaf[i], sep.MaxDelayToLeaf[i])
		}
	}
}
