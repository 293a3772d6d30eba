package sched

import (
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/heur"
	"daginsched/internal/isa"
	"daginsched/internal/machine"
	"daginsched/internal/pipe"
	"daginsched/internal/resource"
	"daginsched/internal/testgen"
)

// chainBlocks builds a two-block chain with a cross-block latency: the
// first block ends by launching a divide into %f6; the second consumes
// it immediately but has independent work available to cover the wait.
func chainBlocks() [][]isa.Inst {
	return [][]isa.Inst{
		{
			isa.MovI(1, isa.O0),
			isa.Fp3(isa.FDIVD, isa.F(0), isa.F(2), isa.F(6)), // 20 cycles in flight
		},
		{
			// The dependent chain is the longest in the block, so a
			// purely local critical-path scheduler issues it first —
			// and then the whole block idles behind the in-flight
			// divide, with the cheap independent work trapped behind
			// the stall (in-order issue). A scheduler that knows the
			// inherited latency runs the independent work first.
			isa.Fp3(isa.FADDD, isa.F(6), isa.F(8), isa.F(10)), // wants the divide
			isa.Store(isa.STDF, isa.F(10), isa.SP, 64),
			// Independent cover, more of it than the faddd→stdf gap can
			// hide, so trapping it behind the stall costs real cycles.
			isa.MovI(2, isa.O1),
			isa.MovI(3, isa.O2),
			isa.MovI(4, isa.L0),
			isa.MovI(5, isa.L1),
			isa.MovI(6, isa.L2),
			isa.MovI(7, isa.L3),
			isa.RIR(isa.ADD, isa.O1, 1, isa.O3),
			isa.RIR(isa.ADD, isa.O2, 2, isa.O4),
			isa.Store(isa.ST, isa.O3, isa.FP, -4),
			isa.Store(isa.ST, isa.O4, isa.FP, -8),
		},
	}
}

func buildChain(t *testing.T, bodies [][]isa.Inst, m *machine.Model) ([]*dag.DAG, []isa.Inst) {
	t.Helper()
	var dags []*dag.DAG
	var flat []isa.Inst
	for _, body := range bodies {
		b := &block.Block{Name: "c", Insts: body, Start: len(flat)}
		for i := range b.Insts {
			b.Insts[i].Index = i
		}
		rt := resource.NewTable(resource.MemExprModel)
		rt.PrepareBlock(b.Insts)
		d := dag.TableForward{}.Build(b, m, rt)
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		dags = append(dags, d)
		flat = append(flat, body...)
	}
	return dags, flat
}

// simulateChain concatenates the per-block orders and runs the
// independent pipeline simulator over the whole program, which carries
// register state across block boundaries exactly like hardware would.
func simulateChain(flat []isa.Inst, dags []*dag.DAG, results []*Result, m *machine.Model) int32 {
	var order []int32
	base := int32(0)
	for bi, r := range results {
		for _, node := range r.Order {
			order = append(order, base+node)
		}
		base += int32(dags[bi].Len())
	}
	rt := resource.NewTable(resource.MemExprModel)
	rt.PrepareBlock(flat)
	return pipe.Simulate(flat, order, m, rt).Cycles
}

func TestCarryOutReportsInFlightLatencies(t *testing.T) {
	m := machine.Pipe1()
	dags, _ := buildChain(t, chainBlocks(), m)
	r := InOrder(dags[0], m)
	c := CarryOut(dags[0], m, r)
	// The divide issues at cycle 1, block ends at cycle 1, so %f6 (and
	// its pair half %f7) arrive 20 cycles later: 1+20 - 2 = 19 relative.
	if c.Ready[isa.F(6)] != 19 {
		t.Errorf("Ready[f6] = %d, want 19", c.Ready[isa.F(6)])
	}
	if c.Ready[isa.F(7)] != 20 { // odd half: +1 pair skew
		t.Errorf("Ready[f7] = %d, want 20", c.Ready[isa.F(7)])
	}
	if c.Ready[isa.O0] > 0 {
		t.Errorf("Ready[o0] = %d, want none (completed in-block)", c.Ready[isa.O0])
	}
}

func TestGlobalSchedulingCoversCrossBlockStall(t *testing.T) {
	m := machine.Pipe1()
	dags, flat := buildChain(t, chainBlocks(), m)
	local := ScheduleChain(dags, m, false)
	global := ScheduleChain(dags, m, true)
	// The local scheduler, blind to the in-flight divide, issues the
	// dependent faddd first; the global one defers it behind the cover.
	if local[1].Order[0] != 0 {
		t.Fatalf("local schedule unexpectedly avoided the stall: %v", local[1].Order)
	}
	if global[1].Order[0] == 0 {
		t.Fatalf("global schedule should defer the faddd: %v", global[1].Order)
	}
	lc := simulateChain(flat, dags, local, m)
	gc := simulateChain(flat, dags, global, m)
	if gc > lc {
		t.Fatalf("global scheduling worsened the chain: %d vs %d", gc, lc)
	}
	if gc == lc {
		t.Fatalf("global scheduling should help here: both %d", gc)
	}
}

func TestGlobalHelpsInAggregateOnRandomChains(t *testing.T) {
	// The carry adds information but the greedy selector is not optimal,
	// so individual chains may regress by a few tiebreak cycles; across
	// many chains the inherited latencies must win on balance and never
	// lose big anywhere.
	m := machine.Pipe1()
	var localTotal, globalTotal int32
	for seed := int64(0); seed < 20; seed++ {
		var bodies [][]isa.Inst
		for b := 0; b < 4; b++ {
			bodies = append(bodies, testgen.Block(seed*10+int64(b), 12))
		}
		dags, flat := buildChain(t, bodies, m)
		local := ScheduleChain(dags, m, false)
		global := ScheduleChain(dags, m, true)
		lc := simulateChain(flat, dags, local, m)
		gc := simulateChain(flat, dags, global, m)
		localTotal += lc
		globalTotal += gc
		if gc > lc+5 {
			t.Fatalf("seed %d: global %d far worse than local %d", seed, gc, lc)
		}
	}
	if globalTotal > localTotal {
		t.Fatalf("global scheduling lost in aggregate: %d vs %d cycles",
			globalTotal, localTotal)
	}
}

func TestCarryBusyUnits(t *testing.T) {
	m := machine.FPU()
	dags, _ := buildChain(t, chainBlocks(), m)
	r := InOrder(dags[0], m)
	c := CarryOut(dags[0], m, r)
	if c.Busy[isa.ClassFPD] <= 0 {
		t.Errorf("divider busy time not carried: %d", c.Busy[isa.ClassFPD])
	}
	// Applying the carry must delay a divide in the next block.
	a := newState(dags[1], m, nil)
	applyCarry(a, c)
	// No divide in block 2; but the unit busy must be seeded anyway.
	if a.unitBusy[isa.ClassFPD][0] != c.Busy[isa.ClassFPD] {
		t.Error("unit busy carry not applied")
	}
}

func TestJoinTakesPerRegisterMax(t *testing.T) {
	a := &Carry{}
	a.Ready[isa.F(6)] = 10
	a.Busy[isa.ClassFPD] = 4
	b := &Carry{}
	b.Ready[isa.F(6)] = 3
	b.Ready[isa.O0] = 7
	j := Join(a, nil, b)
	if j.Ready[isa.F(6)] != 10 || j.Ready[isa.O0] != 7 {
		t.Fatalf("join ready = %d/%d", j.Ready[isa.F(6)], j.Ready[isa.O0])
	}
	if j.Busy[isa.ClassFPD] != 4 {
		t.Fatalf("join busy = %d", j.Busy[isa.ClassFPD])
	}
	if empty := Join(); empty.Ready[isa.O0] != 0 {
		t.Fatal("empty join should be zero")
	}
}

func TestRunWithCarryFallsBackForBackward(t *testing.T) {
	m := machine.Pipe1()
	dags, _ := buildChain(t, chainBlocks(), m)
	carry := CarryOut(dags[0], m, InOrder(dags[0], m))
	// Backward algorithms cannot exploit the carry: same result as Run.
	tm := Tiemann()
	a := tm.RunWithCarry(dags[1], m, carry)
	b := tm.Run(dags[1], m)
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatal("backward fallback diverged from Run")
		}
	}
	// Forward algorithms do exploit it.
	kr := Krishnamurthy()
	fwd := kr.RunWithCarry(dags[1], m, carry)
	if !Legal(dags[1], fwd) {
		t.Fatal("carry-aware run illegal")
	}
}

func TestSelectorKeysAccessors(t *testing.T) {
	keys := []RankedKey{{Key: heur.ExecTime}}
	if len(Winnow(keys).Keys()) != 1 || len(Priority(keys).Keys()) != 1 {
		t.Fatal("Keys() accessors broken")
	}
}

func TestStateAccessors(t *testing.T) {
	m := machine.Pipe1()
	dags, _ := buildChain(t, chainBlocks(), m)
	s := newState(dags[0], m, nil)
	if s.Time() != 0 || s.Last() != -1 {
		t.Fatal("fresh state accessors wrong")
	}
	s.place(0)
	if s.Last() != 0 {
		t.Fatal("Last not updated")
	}
}

func TestNilCarryIsLocal(t *testing.T) {
	m := machine.Pipe1()
	dags, _ := buildChain(t, chainBlocks(), m)
	a := newState(dags[0], m, nil)
	applyCarry(a, nil) // must be a no-op
	for _, e := range a.eet {
		if e != 0 {
			t.Fatal("nil carry changed EETs")
		}
	}
}

// TestForwardWithCarryNilMatchesForward pins that a nil carry leaves
// ForwardWithCarry exactly Forward: every forward Table 2 algorithm,
// on generated blocks, produces the same order and issue cycles.
func TestForwardWithCarryNilMatchesForward(t *testing.T) {
	m := machine.Pipe1()
	checked := 0
	for _, al := range Table2() {
		if al.TimeIndexed || al.SchedDir != dag.Forward {
			continue
		}
		for seed := int64(1); seed <= 8; seed++ {
			b := &block.Block{Name: "fwc", Insts: testgen.Block(seed, 20+int(seed)*9)}
			for i := range b.Insts {
				b.Insts[i].Index = i
			}
			rt := resource.NewTable(resource.MemExprModel)
			rt.PrepareBlock(b.Insts)
			d := al.Builder().Build(b, m, rt)
			a := heur.New(d, m)
			prepareAnnot(a, al.Ranked)
			want := Forward(d, m, a, al.Selector())
			got := ForwardWithCarry(d, m, a, al.Selector(), nil)
			sameSchedule(t, al.Name, got, want)
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("Table 2 has no forward algorithm")
	}
}
