package pipe

import (
	"strings"
	"testing"

	"daginsched/internal/isa"
	"daginsched/internal/machine"
	"daginsched/internal/testgen"
)

func TestExplainMatchesSimulate(t *testing.T) {
	models := []*machine.Model{machine.Pipe1(), machine.FPU(), machine.Asym(), machine.Super2(), machine.Deep()}
	for seed := int64(0); seed < 20; seed++ {
		insts := testgen.Block(seed, 25)
		for _, m := range models {
			rt := table(insts)
			sim := Simulate(insts, nil, m, rt)
			det := Explain(insts, nil, m, table(insts))
			if sim.Cycles != det.Cycles {
				t.Fatalf("seed %d %s: explain %d cycles, simulate %d",
					seed, m.Name, det.Cycles, sim.Cycles)
			}
			for i := range sim.Issue {
				if sim.Issue[i] != det.Issue[i] {
					t.Fatalf("seed %d %s: issue mismatch at %d", seed, m.Name, i)
				}
			}
		}
	}
}

func TestExplainAttributesRAW(t *testing.T) {
	insts := []isa.Inst{
		isa.Load(isa.LD, isa.FP, -4, isa.O0),
		isa.RIR(isa.ADD, isa.O0, 1, isa.O1),
	}
	det := Explain(insts, nil, machine.Pipe1(), table(insts))
	st := det.Stalls[1]
	if st.Cause != StallRAW || st.Wait != 1 || st.Culprit != 0 {
		t.Fatalf("stall = %+v, want RAW wait 1 on position 0", st)
	}
	if det.ByCause[StallRAW] != 1 {
		t.Fatalf("ByCause[RAW] = %d", det.ByCause[StallRAW])
	}
}

func TestExplainAttributesUnit(t *testing.T) {
	insts := []isa.Inst{
		isa.Fp3(isa.FDIVS, isa.F(1), isa.F(2), isa.F(3)),
		isa.Fp3(isa.FDIVS, isa.F(4), isa.F(5), isa.F(6)),
	}
	det := Explain(insts, nil, machine.FPU(), table(insts))
	st := det.Stalls[1]
	if st.Cause != StallUnit || st.Culprit != 0 {
		t.Fatalf("stall = %+v, want unit stall on position 0", st)
	}
	if st.Wait != 19 { // could issue at 1 by width; unit free at 20
		t.Fatalf("wait = %d, want 19", st.Wait)
	}
}

func TestExplainAttributesWAW(t *testing.T) {
	insts := []isa.Inst{
		isa.Fp3(isa.FDIVS, isa.F(1), isa.F(2), isa.F(4)),
		isa.Fp2(isa.FMOVS, isa.F(6), isa.F(4)),
	}
	det := Explain(insts, nil, machine.Pipe1(), table(insts))
	if det.Stalls[1].Cause != StallWAW {
		t.Fatalf("stall = %+v, want WAW", det.Stalls[1])
	}
}

func TestExplainAttributesWAR(t *testing.T) {
	m := machine.Pipe1().SetLatency(isa.NOP, 1)
	m.WARDelay = 3 // exaggerate so WAR binds
	insts := []isa.Inst{
		isa.RRR(isa.ADD, isa.O1, isa.O2, isa.O0), // reads o1
		isa.MovI(5, isa.O1),                      // overwrites o1: WAR
	}
	det := Explain(insts, nil, m, table(insts))
	if det.Stalls[1].Cause != StallWAR || det.Stalls[1].Wait != 2 {
		t.Fatalf("stall = %+v, want WAR wait 2", det.Stalls[1])
	}
}

func TestExplainNoStallsOnIndependentCode(t *testing.T) {
	cases := []struct {
		name  string
		m     *machine.Model
		insts []isa.Inst
		issue []int32
	}{
		{"pipe1", machine.Pipe1(), []isa.Inst{
			isa.MovI(1, isa.O0),
			isa.MovI(2, isa.O1),
			isa.MovI(3, isa.O2),
		}, []int32{0, 1, 2}},
		// Super2 issues one instruction per group per cycle: the second
		// integer-side instruction waits for the next cycle, which is
		// the issue-group floor, not a stall.
		{"super2 same group", machine.Super2(), []isa.Inst{
			isa.MovI(1, isa.O0),
			isa.MovI(2, isa.O1),
		}, []int32{0, 1}},
		// A WAR delay that ends exactly at the issue-group floor binds
		// nothing either.
		{"super2 WAR at floor", machine.Super2(), []isa.Inst{
			isa.RRR(isa.ADD, isa.O1, isa.O2, isa.O0), // reads o1
			isa.MovI(5, isa.O1),                      // overwrites o1 one cycle later
		}, []int32{0, 1}},
	}
	for _, c := range cases {
		det := Explain(c.insts, nil, c.m, table(c.insts))
		for i, st := range det.Stalls {
			if st.Cause != NoStall || st.Wait != 0 || st.Culprit != -1 {
				t.Fatalf("%s: position %d: %+v", c.name, i, st)
			}
			if det.Issue[i] != c.issue[i] {
				t.Fatalf("%s: issue %v, want %v", c.name, det.Issue, c.issue)
			}
		}
	}
}

func TestExplainReport(t *testing.T) {
	insts := []isa.Inst{
		isa.Load(isa.LD, isa.FP, -4, isa.O0),
		isa.RIR(isa.ADD, isa.O0, 1, isa.O1),
	}
	det := Explain(insts, nil, machine.Pipe1(), table(insts))
	rep := det.Report(insts, nil)
	for _, want := range []string{"RAW 1", "waits  1", "ld [%fp-4], %o0"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestCauseString(t *testing.T) {
	want := map[StallCause]string{
		NoStall: "none", StallRAW: "RAW", StallWAR: "WAR",
		StallWAW: "WAW", StallUnit: "unit",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}
