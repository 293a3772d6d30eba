package sched

import (
	"testing"

	"daginsched/internal/dag"
	"daginsched/internal/heur"
	"daginsched/internal/machine"
	"daginsched/internal/testgen"
)

// totalCycles schedules many random blocks with one algorithm and sums
// the resulting makespans.
func totalCycles(t *testing.T, al *Algorithm, m *machine.Model, seeds, size int) int64 {
	t.Helper()
	var total int64
	for seed := 0; seed < seeds; seed++ {
		insts := testgen.Block(int64(seed), size)
		d := buildDAG(t, al.Builder(), m, insts)
		r := al.Run(d, m)
		if !Legal(d, r) {
			t.Fatalf("%s seed %d: illegal", al.Name, seed)
		}
		total += int64(r.Cycles)
	}
	return total
}

// TestShiehRank5Omittable verifies Section 5's remark: "the use of
// minimum path to a root in Shieh and Papachristou could possibly be
// omitted or replaced with little effect because it is the last
// heuristic to be applied."
func TestShiehRank5Omittable(t *testing.T) {
	m := machine.Pipe1()
	full := ShiehPapachristou()
	trimmed := ShiehPapachristou()
	trimmed.Name = "shieh-no-rank5"
	trimmed.Ranked = trimmed.Ranked[:4]

	a := totalCycles(t, full, m, 60, 25)
	b := totalCycles(t, trimmed, m, 60, 25)
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	// "Little effect": within 2% aggregate cycles.
	if diff*50 > a {
		t.Errorf("omitting rank 5 changed cycles by %d of %d (> 2%%)", diff, a)
	}
}

// TestEETSubsumesInterlockWithPrev verifies Section 3's claim about the
// interlock-with-previous-instruction heuristic: "This is an expensive
// heuristic, and its function is much better performed by earliest
// execution time." Swapping EET into Gibbons & Muchnick's rank 1 must
// not lose in aggregate.
func TestEETSubsumesInterlockWithPrev(t *testing.T) {
	m := machine.Pipe1()
	gm := GibbonsMuchnick()
	eetGM := GibbonsMuchnick()
	eetGM.Name = "gm-eet"
	eetGM.Ranked = append([]RankedKey{{Key: heur.EarliestExecTime, Min: true}},
		eetGM.Ranked[1:]...)

	interlock := totalCycles(t, gm, m, 60, 25)
	eet := totalCycles(t, eetGM, m, 60, 25)
	if eet > interlock {
		t.Errorf("EET variant (%d cycles) lost to interlock variant (%d)", eet, interlock)
	}
}

// TestUncoveredBeatsChildrenAsEstimate verifies Table 1's discussion:
// #uncovered children "measures exactly how many nodes will be added to
// the candidate list", while #children is "inaccurate" and
// #single-parent children in between. We validate the accuracy ordering
// directly against ground truth at each scheduling step.
func TestUncoveredBeatsChildrenAsEstimate(t *testing.T) {
	m := machine.Pipe1()
	var errChildren, errSingle, errUncovered int64
	for seed := int64(0); seed < 30; seed++ {
		insts := testgen.Block(seed, 20)
		d := buildDAG(t, dag.TableForward{}, m, insts)
		a := heur.New(d, m)
		a.ComputeLocal()
		s := newState(d, m, a)
		for picked := 0; picked < d.Len(); picked++ {
			// Find any ready node; measure all three estimates on it.
			var pick int32 = -1
			for i := 0; i < d.Len(); i++ {
				if !s.scheduled[i] && s.unschedParents[i] == 0 {
					pick = int32(i)
					break
				}
			}
			if pick < 0 {
				t.Fatal("no ready node")
			}
			nc := int64(d.Freeze().NumSuccs(pick))
			sp := int64(s.NumSingleParentChildren(pick))
			uc := int64(s.NumUncoveredChildren(pick))
			// Ground truth: children that become immediately issuable
			// (all parents scheduled and delay-1 arrival) after placing.
			var truth int64
			for _, arc := range d.Nodes[pick].Succs {
				if s.unschedParents[arc.To] == 1 && arc.Delay == 1 {
					truth++
				}
			}
			abs := func(v int64) int64 {
				if v < 0 {
					return -v
				}
				return v
			}
			errChildren += abs(nc - truth)
			errSingle += abs(sp - truth)
			errUncovered += abs(uc - truth)
			s.place(pick)
		}
	}
	if errUncovered != 0 {
		t.Errorf("#uncovered children should be exact, error %d", errUncovered)
	}
	if errSingle > errChildren {
		t.Errorf("#single-parent (%d) should beat #children (%d)", errSingle, errChildren)
	}
	if errChildren == 0 {
		t.Error("test vacuous: #children never wrong on these blocks")
	}
}

// TestPostpassFixupHelpsKrishnamurthy quantifies the Table 2 post-pass:
// across many blocks it must help at least sometimes and never hurt.
func TestPostpassFixupHelpsKrishnamurthy(t *testing.T) {
	m := machine.Pipe1()
	with := Krishnamurthy()
	without := Krishnamurthy()
	without.Name = "krishnamurthy-nofix"
	without.Postpass = false
	a := totalCycles(t, with, m, 60, 25)
	b := totalCycles(t, without, m, 60, 25)
	if a > b {
		t.Errorf("post-pass fixup hurt: %d vs %d", a, b)
	}
}
