package engine

import (
	"runtime"
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/heur"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/sched"
	"daginsched/internal/testgen"
)

// testBlocks builds a stream of blocks of deliberately uneven sizes —
// growing, shrinking, including the degenerate 0- and 1-instruction
// cases — so worker arenas exercise their shrink/regrow paths.
func testBlocks(t testing.TB, count int) []*block.Block {
	sizes := []int{40, 7, 150, 1, 64, 0, 90, 13, 33, 120}
	blocks := make([]*block.Block, count)
	for i := range blocks {
		n := sizes[i%len(sizes)]
		insts := testgen.Block(int64(9000+i), n)
		b := &block.Block{Name: "b", Insts: insts}
		for k := range b.Insts {
			b.Insts[k].Index = k
		}
		blocks[i] = b
	}
	return blocks
}

// serialReference runs the engine's default pipeline (fused backward
// table building + the Section 6 winnowing pass) with the plain,
// allocation-per-block APIs — the pre-engine reference the batch path
// must reproduce exactly, arc counts included.
func serialReference(blocks []*block.Block, m *machine.Model) (orders [][]int32, cycles, arcs []int32) {
	orders = make([][]int32, len(blocks))
	cycles = make([]int32, len(blocks))
	arcs = make([]int32, len(blocks))
	rt := resource.NewTable(resource.MemExprModel)
	for i, b := range blocks {
		rt.PrepareBlock(b.Insts)
		a := heur.New(nil, m)
		obs := &heur.FusedBackward{A: a, ComputeLocals: true}
		d := dag.TableBackward{Observer: obs}.Build(b, m, rt)
		res := sched.Forward(d, m, a, sched.Winnow(sched.Section6Ranked()))
		orders[i] = res.Order
		cycles[i] = res.Cycles
		arcs[i] = int32(d.NumArcs)
	}
	return orders, cycles, arcs
}

func requireSameBatch(t *testing.T, wantOrders [][]int32, wantCycles, wantArcs []int32, got *BatchResult) {
	t.Helper()
	if len(got.Orders) != len(wantOrders) {
		t.Fatalf("got %d orders, want %d", len(got.Orders), len(wantOrders))
	}
	for i := range wantOrders {
		if got.Cycles[i] != wantCycles[i] {
			t.Fatalf("block %d: cycles %d, want %d", i, got.Cycles[i], wantCycles[i])
		}
		if len(got.Orders[i]) != len(wantOrders[i]) {
			t.Fatalf("block %d: order length %d, want %d", i, len(got.Orders[i]), len(wantOrders[i]))
		}
		for k := range wantOrders[i] {
			if got.Orders[i][k] != wantOrders[i][k] {
				t.Fatalf("block %d position %d: node %d, want %d",
					i, k, got.Orders[i][k], wantOrders[i][k])
			}
		}
		if got.Arcs[i] != wantArcs[i] {
			t.Fatalf("block %d: %d arcs, want %d", i, got.Arcs[i], wantArcs[i])
		}
	}
}

// TestEngineMatchesSerialReference requires the batch engine to be
// byte-identical to the plain serial pipeline, with the scoreboard
// simulator co-signing every schedule.
func TestEngineMatchesSerialReference(t *testing.T) {
	for _, m := range []*machine.Model{machine.Pipe1(), machine.Super2()} {
		blocks := testBlocks(t, 40)
		wantOrders, wantCycles, wantArcs := serialReference(blocks, m)
		for _, workers := range []int{1, 4} {
			e, err := New(Config{
				Workers: workers, Model: m,
				KeepOrders: true, Verify: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(blocks)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			requireSameBatch(t, wantOrders, wantCycles, wantArcs, res)
			if res.Stats.Blocks != len(blocks) || res.Stats.Workers != workers {
				t.Errorf("stats header wrong: %+v", res.Stats)
			}
		}
	}
}

// TestEngineDeterminism is the satellite determinism check: one worker
// and eight workers must produce identical schedules, cycle counts and
// arc counts. The CI script additionally runs this under -race, which
// would flag any sharing between worker scratch arenas.
func TestEngineDeterminism(t *testing.T) {
	m := machine.Pipe1()
	blocks := testBlocks(t, 60)
	cfg := Config{Model: m, KeepOrders: true}

	cfg.Workers = 1
	e1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := e1.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	// Copy out: a second engine's Run may not alias the first's result,
	// but keep the comparison independent of that.
	wantOrders := make([][]int32, len(serial.Orders))
	for i, o := range serial.Orders {
		wantOrders[i] = append([]int32(nil), o...)
	}
	wantCycles := append([]int32(nil), serial.Cycles...)
	wantArcs := append([]int32(nil), serial.Arcs...)

	cfg.Workers = 8
	e8, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		par, err := e8.Run(blocks)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBatch(t, wantOrders, wantCycles, wantArcs, par)
	}
}

// TestEngineSteadyStateZeroAlloc is the tentpole property end to end:
// once a single-worker engine has warmed up on a block stream,
// re-running the whole batch — prepare, build, heuristics, schedule,
// result collection — allocates nothing.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
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
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.RunInto(res, blocks); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state batch run allocates %.1f/batch, want 0", allocs)
	}
}

// TestEngineConfigErrors covers constructor validation.
func TestEngineConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a nil machine model")
	}
	e, err := New(Config{Model: machine.Pipe1(), Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() < 1 {
		t.Errorf("defaulted workers = %d, want >= 1", e.Workers())
	}
}

// TestNewMemoryLinearInWorkers pins that New's footprint grows with
// the worker count, not its square: the claim buffer is per worker,
// not per crew member. New starts no goroutine without CachePath, so
// the process-wide allocation counter measures it alone.
func TestNewMemoryLinearInWorkers(t *testing.T) {
	const limit = 8 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := New(Config{Workers: 256, Model: machine.Pipe1()})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("New with 256 workers allocated %d bytes, want under %d", got, limit)
	}
	runtime.KeepAlive(e)
}

// TestEngineEmptyBatch must not divide by zero or misreport.
func TestEngineEmptyBatch(t *testing.T) {
	e, err := New(Config{Workers: 2, Model: machine.Pipe1(), KeepOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Blocks != 0 || res.Stats.Insts != 0 || res.Stats.InstsPerSec != 0 {
		t.Errorf("empty batch stats: %+v", res.Stats)
	}
}
