package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/fault"
	"daginsched/internal/machine"
	"daginsched/internal/tables"
	"daginsched/internal/testgen"
)

// chaosCorpus builds a corpus with deliberate content repeats (so the
// schedule cache gets hits for the bitflip point to poison) and sizes
// from tiny to 150 instructions, including the degenerate 0- and
// 1-instruction blocks.
func chaosCorpus(distinct, repeats int) []*block.Block {
	sizes := []int{40, 7, 150, 1, 64, 0, 90, 13, 33, 120, 3, 72}
	uniq := make([]*block.Block, distinct)
	for i := range uniq {
		n := sizes[i%len(sizes)]
		insts := testgen.Block(int64(31000+i), n)
		b := &block.Block{Name: "chaos", Insts: insts}
		for k := range b.Insts {
			b.Insts[k].Index = k
		}
		uniq[i] = b
	}
	blocks := make([]*block.Block, 0, distinct*repeats)
	for r := 0; r < repeats; r++ {
		blocks = append(blocks, uniq...)
	}
	return blocks
}

// grepBlocks returns Table 3's grep benchmark set.
func grepBlocks(t *testing.T) []*block.Block {
	t.Helper()
	for _, set := range tables.Table3Sets() {
		if set.Name == "grep" {
			return set.Blocks
		}
	}
	t.Fatal("Table 3 has no grep set")
	return nil
}

// TestEngineChaosLadder is the chaos gate: a seeded fault plan fires
// panics, arc corruptions, cache bitflips and stalls across a corpus
// on an 8-worker pool, and the run must (a) complete every block with
// a schedule the independent simulator co-signs, (b) degrade only
// faulted blocks, (c) fault at least 5% of blocks, (d) — because every
// non-identity rung is byte-identical to the primary pipeline and no
// deadline is armed — produce exactly the fault-free run's output for
// every block, and (e) show every hardening tally nonzero. It runs over
// the synthetic chaos corpus on Super2 and over Table 3's grep set on
// Pipe1.
func TestEngineChaosLadder(t *testing.T) {
	cases := []struct {
		name   string
		model  *machine.Model
		blocks []*block.Block
		plan   *fault.Plan
	}{
		{"synthetic", machine.Super2(), chaosCorpus(48, 5), &fault.Plan{
			Seed:         42,
			PanicBuilder: 0.08,
			CorruptArc:   0.08,
			CacheBitflip: 0.30,
			SlowBlock:    0.05,
			SlowDelay:    50 * time.Microsecond,
		}},
		{"grep", machine.Pipe1(), grepBlocks(t), &fault.Plan{
			Seed:         1,
			PanicBuilder: 0.08,
			CorruptArc:   0.08,
			CacheBitflip: 0.32,
			SlowBlock:    0.04,
			SlowDelay:    100 * time.Microsecond,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireChaosRecovers(t, tc.model, tc.blocks, tc.plan)
		})
	}
}

func requireChaosRecovers(t *testing.T, m *machine.Model, blocks []*block.Block, plan *fault.Plan) {
	base := Config{
		Workers:    8,
		Model:      m,
		KeepOrders: true,
		Verify:     true,
		Cache:      true,
	}

	clean, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.FaultPlan = plan
	chaotic, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := chaotic.Run(blocks)
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}

	// Recompute the faulted set outside the engine: a pure function of
	// (plan, block content).
	inj, err := fault.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	faulted := 0
	for i, b := range blocks {
		key := BlockKey(b.Insts)
		if inj.Any(key) {
			faulted++
		} else if got.Rungs[i] != RungPrimary {
			t.Errorf("block %d: degraded to %v without any injected fault", i, got.Rungs[i])
		}
	}
	if 100*faulted < 5*len(blocks) {
		t.Fatalf("plan faults %d/%d blocks, want at least 5%%", faulted, len(blocks))
	}

	// No deadline is armed, so every ladder rung in play (table after a
	// panic or gate failure) is byte-identical to the primary pipeline:
	// the whole batch, faulted blocks included, must match the
	// fault-free run exactly.
	for i := range blocks {
		if got.Cycles[i] != want.Cycles[i] {
			t.Fatalf("block %d: cycles %d, want %d (rung %v)", i, got.Cycles[i], want.Cycles[i], got.Rungs[i])
		}
		if got.Arcs[i] != want.Arcs[i] {
			t.Fatalf("block %d: arcs %d, want %d (rung %v)", i, got.Arcs[i], want.Arcs[i], got.Rungs[i])
		}
		if len(got.Orders[i]) != len(want.Orders[i]) {
			t.Fatalf("block %d: order length %d, want %d", i, len(got.Orders[i]), len(want.Orders[i]))
		}
		for k := range want.Orders[i] {
			if got.Orders[i][k] != want.Orders[i][k] {
				t.Fatalf("block %d position %d: node %d, want %d (rung %v)",
					i, k, got.Orders[i][k], want.Orders[i][k], got.Rungs[i])
			}
		}
	}

	st := got.Stats
	if st.FaultsInjected == 0 {
		t.Error("chaos run reports zero injected faults")
	}
	if st.Quarantines == 0 {
		t.Error("chaos run reports zero quarantines; panics and gate failures must quarantine")
	}
	if st.GateFailures == 0 {
		t.Error("chaos run reports zero gate failures; corrupt arcs and bitflips must be caught")
	}
	if st.Demotions == 0 || st.DegradedBlocks == 0 {
		t.Errorf("chaos run reports %d demotions / %d degraded blocks, want > 0",
			st.Demotions, st.DegradedBlocks)
	}
	degraded := int64(0)
	for _, rg := range got.Rungs {
		if rg != RungPrimary {
			degraded++
		}
	}
	if degraded != st.DegradedBlocks {
		t.Errorf("Stats.DegradedBlocks = %d, Rungs say %d", st.DegradedBlocks, degraded)
	}
	ws := want.Stats
	if ws.Quarantines != 0 || ws.Demotions != 0 || ws.GateFailures != 0 || ws.FaultsInjected != 0 || ws.DegradedBlocks != 0 {
		t.Errorf("fault-free run has nonzero hardening tallies: %+v", ws)
	}
}

// TestEngineChaosDeterminism pins the chaos gate's foundation: the
// same plan over the same corpus degrades exactly the same blocks to
// exactly the same rungs, regardless of worker count.
func TestEngineChaosDeterminism(t *testing.T) {
	m := machine.Pipe1()
	blocks := chaosCorpus(30, 3)
	plan := &fault.Plan{Seed: 7, PanicBuilder: 0.15, CorruptArc: 0.15}
	var runs [2]*BatchResult
	for i, workers := range []int{1, 8} {
		e, err := New(Config{Workers: workers, Model: m, FaultPlan: plan})
		if err != nil {
			t.Fatal(err)
		}
		if runs[i], err = e.Run(blocks); err != nil {
			t.Fatal(err)
		}
	}
	for i := range blocks {
		if runs[0].Rungs[i] != runs[1].Rungs[i] {
			t.Fatalf("block %d: rung %v at 1 worker, %v at 8", i, runs[0].Rungs[i], runs[1].Rungs[i])
		}
	}
	if runs[0].Stats.FaultsInjected != runs[1].Stats.FaultsInjected {
		t.Errorf("faults injected differ across worker counts: %d vs %d",
			runs[0].Stats.FaultsInjected, runs[1].Stats.FaultsInjected)
	}
}

// TestEngineCorruptArcCaught proves the output gate's predecessor walk
// end to end: with one frozen predecessor record of every block's DAG
// bumped by 2^20 cycles (fault.CorruptPredArc), the gate must reject
// every schedule whose DAG has arcs, demote those blocks to the table
// rung, and still emit byte-identical output.
func TestEngineCorruptArcCaught(t *testing.T) {
	m := machine.Pipe1()
	blocks := testBlocks(t, 20)
	clean, err := New(Config{Workers: 1, Model: m, KeepOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Workers:    1,
		Model:      m,
		KeepOrders: true,
		Verify:     true,
		FaultPlan:  &fault.Plan{Seed: 3, CorruptArc: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		if want.Arcs[i] > 0 {
			if got.Rungs[i] != RungTable {
				t.Errorf("block %d (%d arcs): rung %v, want table after corruption", i, want.Arcs[i], got.Rungs[i])
			}
		} else if got.Rungs[i] != RungPrimary {
			t.Errorf("arcless block %d: rung %v, want primary (nothing to corrupt)", i, got.Rungs[i])
		}
		if got.Cycles[i] != want.Cycles[i] {
			t.Errorf("block %d: cycles %d, want %d", i, got.Cycles[i], want.Cycles[i])
		}
		for k := range want.Orders[i] {
			if got.Orders[i][k] != want.Orders[i][k] {
				t.Fatalf("block %d position %d: order differs after recovery", i, k)
			}
		}
	}
	if got.Stats.GateFailures == 0 || got.Stats.Quarantines == 0 {
		t.Errorf("corruption run: %d gate failures, %d quarantines, want > 0",
			got.Stats.GateFailures, got.Stats.Quarantines)
	}
}

// TestEngineDeadlineDemotesToIdentity: an unmeetable soft deadline
// demotes every block to the identity floor — original program order,
// zero arcs, simulator-timed — and a generous one demotes nothing.
func TestEngineDeadlineDemotesToIdentity(t *testing.T) {
	m := machine.Pipe1()
	blocks := testBlocks(t, 12)
	e, err := New(Config{Workers: 2, Model: m, KeepOrders: true, Verify: true, BlockTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		if res.Rungs[i] != RungIdentity {
			t.Fatalf("block %d: rung %v, want identity under a 1ns deadline", i, res.Rungs[i])
		}
		if res.Arcs[i] != 0 {
			t.Errorf("block %d: %d arcs on the identity rung, want 0", i, res.Arcs[i])
		}
		for k := range res.Orders[i] {
			if res.Orders[i][k] != int32(k) {
				t.Fatalf("block %d: identity rung reordered position %d to %d", i, k, res.Orders[i][k])
			}
		}
		_ = b
	}
	if res.Stats.Demotions == 0 || res.Stats.DegradedBlocks != int64(len(blocks)) {
		t.Errorf("deadline run: %d demotions, %d degraded, want all %d blocks degraded",
			res.Stats.Demotions, res.Stats.DegradedBlocks, len(blocks))
	}

	e2, err := New(Config{Workers: 2, Model: m, BlockTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Demotions != 0 || res2.Stats.DegradedBlocks != 0 {
		t.Errorf("generous deadline demoted %d blocks", res2.Stats.DegradedBlocks)
	}
}

// TestEngineRunCtxCancel: a cancelled context stops the run at the
// next block claim and surfaces ctx's error.
func TestEngineRunCtxCancel(t *testing.T) {
	e, err := New(Config{Workers: 2, Model: machine.Pipe1()})
	if err != nil {
		t.Fatal(err)
	}
	blocks := testBlocks(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunCtx(ctx, blocks); err == nil {
		t.Fatal("cancelled run returned nil error")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	} else if !strings.Contains(err.Error(), "run cancelled") {
		t.Fatalf("cancelled run error = %q, want a 'run cancelled' message", err)
	}
	// The engine must be reusable after a cancelled run.
	if _, err := e.RunCtx(context.Background(), blocks); err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
	if _, err := e.RunCtx(nil, blocks); err != nil { //nolint:staticcheck // nil ctx is documented as Background
		t.Fatalf("nil ctx run: %v", err)
	}
}

// TestEngineConfigValidation is the table-driven satellite: every
// rejected Config comes back as a *ConfigError naming the field and
// matching errors.Is(err, ErrConfig).
func TestEngineConfigValidation(t *testing.T) {
	m := machine.Pipe1()
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"nil model", Config{}, "Model"},
		{"negative workers", Config{Model: m, Workers: -1}, "Workers"},
		{"negative cache cap", Config{Model: m, CacheCap: -1}, "CacheCap"},
		{"negative timeout", Config{Model: m, BlockTimeout: -time.Second}, "BlockTimeout"},
		{"bad fault rate", Config{Model: m, FaultPlan: &fault.Plan{PanicBuilder: 2}}, "FaultPlan"},
		{"negative slow delay", Config{Model: m, FaultPlan: &fault.Plan{SlowBlock: 0.1, SlowDelay: -1}}, "FaultPlan"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if err == nil {
				t.Fatal("New accepted the config")
			}
			if !errors.Is(err, ErrConfig) {
				t.Fatalf("error %v does not match ErrConfig", err)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %q, want %q (%v)", ce.Field, tc.field, err)
			}
			if ce.Error() == "" || !strings.Contains(ce.Error(), tc.field) {
				t.Fatalf("ConfigError message %q does not name the field", ce.Error())
			}
		})
	}

	// Normalization, not rejection: zero workers means GOMAXPROCS, a
	// nil plan is fine.
	e, err := New(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() < 1 {
		t.Errorf("defaulted workers = %d", e.Workers())
	}
}

// TestEngineQuarantineThenZeroAlloc is the arena-recycling regression:
// after a quarantine swaps in fresh scratch, the next batches must
// regrow once and then return to the steady-state zero-allocation
// contract with no state leaking from the discarded scratch.
func TestEngineQuarantineThenZeroAlloc(t *testing.T) {
	m := machine.Pipe1()
	blocks := testBlocks(t, 20)
	e, err := New(Config{Workers: 1, Model: m, KeepOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	res := new(BatchResult)
	if _, err := e.RunInto(res, blocks); err != nil {
		t.Fatal(err)
	}
	want := append([][]int32(nil), res.Orders...)
	for i := range want {
		want[i] = append([]int32(nil), want[i]...)
	}

	e.workers[0].quarantine()
	if e.workers[0].quars != 1 {
		t.Fatalf("quarantine tally = %d, want 1", e.workers[0].quars)
	}
	if _, err := e.RunInto(res, blocks); err != nil { // regrow the fresh scratch
		t.Fatal(err)
	}
	for i := range want {
		for k := range want[i] {
			if res.Orders[i][k] != want[i][k] {
				t.Fatalf("block %d: schedule differs after quarantine", i)
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.RunInto(res, blocks); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("post-quarantine steady state allocates %.1f/batch, want 0", allocs)
	}
}

// TestGateZeroAlloc pins the always-on cost of the output gate: both
// halves run without allocating once the seen-scratch has grown.
func TestGateZeroAlloc(t *testing.T) {
	m := machine.Pipe1()
	e, err := New(Config{Workers: 1, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	w := e.workers[0]
	b := &block.Block{Name: "gate", Insts: testgen.Block(77, 120)}
	for i := range b.Insts {
		b.Insts[i].Index = i
	}
	r, d := w.schedule(b, m)
	allocs := testing.AllocsPerRun(100, func() {
		if !w.gate(d, r, b.Len()) {
			t.Fatal("gate rejected a healthy schedule")
		}
	})
	if allocs != 0 {
		t.Errorf("output gate allocates %.1f/run, want 0", allocs)
	}
}

// TestStructuralGateRejects covers the permutation half's rejection
// cases one by one.
func TestStructuralGateRejects(t *testing.T) {
	e, err := New(Config{Workers: 1, Model: machine.Pipe1()})
	if err != nil {
		t.Fatal(err)
	}
	w := e.workers[0]
	ok := func(order, issue []int32, n int) bool { return w.structuralGate(order, issue, n) }
	if !ok([]int32{2, 0, 1}, []int32{0, 1, 2}, 3) {
		t.Error("rejected a valid permutation")
	}
	if !ok(nil, nil, 0) {
		t.Error("rejected the empty schedule")
	}
	if ok([]int32{0, 0, 2}, []int32{0, 1, 2}, 3) {
		t.Error("accepted a duplicate node")
	}
	if ok([]int32{0, 1, 3}, []int32{0, 1, 2}, 3) {
		t.Error("accepted an out-of-range node")
	}
	if ok([]int32{0, -1, 2}, []int32{0, 1, 2}, 3) {
		t.Error("accepted a negative node")
	}
	if ok([]int32{0, 1}, []int32{0, 1, 2}, 3) {
		t.Error("accepted a short order")
	}
	if ok([]int32{0, 1, 2}, []int32{0, -5, 2}, 3) {
		t.Error("accepted a negative issue cycle")
	}
}

func TestRungString(t *testing.T) {
	want := map[Rung]string{RungPrimary: "primary", RungTable: "table", RungN2: "n2", RungIdentity: "identity", Rung(9): "unknown"}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("Rung(%d).String() = %q, want %q", r, r.String(), s)
		}
	}
	if RungPrimary.next() != RungTable || RungIdentity.next() != RungIdentity {
		t.Error("ladder descent order broken")
	}
}
