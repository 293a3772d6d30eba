package dag

import (
	"testing"

	"daginsched/internal/isa"
	"daginsched/internal/testgen"
)

func TestStatisticsChain(t *testing.T) {
	insts := []isa.Inst{
		isa.Load(isa.LD, isa.FP, -4, isa.O0),
		isa.RIR(isa.ADD, isa.O0, 1, isa.O1),
		isa.RIR(isa.ADD, isa.O1, 1, isa.O2),
	}
	s := buildOn(t, TableForward{}, insts).Statistics()
	if s.Nodes != 3 || s.Arcs != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Roots != 1 || s.Leaves != 1 {
		t.Fatalf("roots/leaves = %d/%d", s.Roots, s.Leaves)
	}
	if s.ChildrenMax != 1 || s.ParentsMax != 1 {
		t.Fatalf("fan = %+v", s)
	}
	if s.ByKind[RAW] != 2 || s.ByKind[WAR] != 0 || s.ByKind[WAW] != 0 {
		t.Fatalf("kinds = %v", s.ByKind)
	}
	if s.DelaySum != 3 || s.DelayAvg() != 1.5 { // load delay 2 + add delay 1
		t.Fatalf("delays: sum %d avg %v", s.DelaySum, s.DelayAvg())
	}
	if s.ChildrenAvg() != 2.0/3.0 {
		t.Fatalf("children avg %v", s.ChildrenAvg())
	}
}

func TestStatisticsMatchManualCount(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		d := buildOn(t, N2Forward{}, testgen.Block(seed, 25))
		s := d.Statistics()
		arcs, roots, leaves := 0, 0, 0
		for i := range d.Nodes {
			arcs += len(d.Nodes[i].Succs)
			if len(d.Nodes[i].Succs) == 0 {
				leaves++
			}
			hasParent := false
			for j := 0; j < i; j++ {
				for _, arc := range d.Nodes[j].Succs {
					hasParent = hasParent || arc.To == int32(i)
				}
			}
			if !hasParent {
				roots++
			}
		}
		if s.Arcs != arcs || s.Roots != roots || s.Leaves != leaves {
			t.Fatalf("seed %d: stats %+v vs manual %d/%d/%d", seed, s, arcs, roots, leaves)
		}
		if s.ByKind[RAW]+s.ByKind[WAR]+s.ByKind[WAW] != arcs {
			t.Fatalf("seed %d: kind sum mismatch", seed)
		}
	}
}

func TestStatisticsEmpty(t *testing.T) {
	s := buildOn(t, TableForward{}, nil).Statistics()
	if s.ChildrenAvg() != 0 || s.DelayAvg() != 0 {
		t.Fatal("empty averages should be zero")
	}
}
