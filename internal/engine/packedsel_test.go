package engine

import (
	"slices"
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/fault"
	"daginsched/internal/machine"
	"daginsched/internal/pipe"
	"daginsched/internal/resource"
	"daginsched/internal/synth"
	"daginsched/internal/testgen"
)

// TestPackedSelMatchesWinnow is the packed-selection identity gate:
// with the packed-priority heap engaged (the default), every block's
// cycle count, arc count and scheduled order must be byte-identical to
// the winnowing reference (an engine whose workers' schedulers have
// packed selection switched off), at every worker count — including a
// faulted run, where quarantined workers, degraded rungs and poisoned
// cache entries must not perturb the selection either.
func TestPackedSelMatchesWinnow(t *testing.T) {
	m := machine.Pipe1()
	blocks := oracleCorpus(t)
	ref, err := New(Config{Workers: 4, Model: m, KeepOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ref.workers {
		w.sc.DisablePacked = true
	}
	want, err := ref.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.PackedSelBlocks != 0 {
		t.Fatalf("winnowing reference reports %d packed blocks", want.Stats.PackedSelBlocks)
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"w1", Config{Workers: 1, Model: m, KeepOrders: true}},
		{"w4", Config{Workers: 4, Model: m, KeepOrders: true}},
		{"w8", Config{Workers: 8, Model: m, KeepOrders: true}},
		{"w8-faulted", Config{Workers: 8, Model: m, KeepOrders: true, Cache: true,
			FaultPlan: &fault.Plan{Seed: 11, PanicBuilder: 0.05, CacheBitflip: 0.2}}},
	}
	for _, tc := range configs {
		e, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Run(blocks)
		if err != nil {
			t.Fatal(err)
		}
		if tc.cfg.FaultPlan == nil && got.Stats.PackedSelBlocks != int64(len(blocks)) {
			t.Errorf("%s: %d of %d blocks took the packed path", tc.name, got.Stats.PackedSelBlocks, len(blocks))
		}
		for i := range blocks {
			if tc.cfg.FaultPlan != nil && got.Rungs[i] == RungIdentity {
				// An identity-rung block keeps program order by design;
				// it is outside the selection identity claim.
				continue
			}
			if got.Cycles[i] != want.Cycles[i] {
				t.Fatalf("%s block %d (%d insts): %d cycles, winnow %d",
					tc.name, i, blocks[i].Len(), got.Cycles[i], want.Cycles[i])
			}
			for p := range want.Orders[i] {
				if got.Orders[i][p] != want.Orders[i][p] {
					t.Fatalf("%s block %d position %d: node %d, winnow %d",
						tc.name, i, p, got.Orders[i][p], want.Orders[i][p])
				}
			}
		}
	}
}

// TestPackedSelStats pins the PackedSelBlocks accounting: all blocks on
// a healthy default run, and cache hits don't double-count.
func TestPackedSelStats(t *testing.T) {
	m := machine.Pipe1()
	blocks := testBlocks(t, 10)
	e, err := New(Config{Workers: 2, Model: m, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PackedSelBlocks != int64(len(blocks)) {
		t.Errorf("first run: PackedSelBlocks = %d, want %d", res.Stats.PackedSelBlocks, len(blocks))
	}
	// Second run: every block is a cache hit and schedules nothing.
	res, err = e.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits != int64(len(blocks)) || res.Stats.PackedSelBlocks != 0 {
		t.Errorf("cached run: hits=%d packed=%d, want %d and 0",
			res.Stats.CacheHits, res.Stats.PackedSelBlocks, len(blocks))
	}
}

// TestEnginePackedSteadyStateZeroAlloc pins the zero-allocation
// property of the packed selection path across whole batch runs.
func TestEnginePackedSteadyStateZeroAlloc(t *testing.T) {
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
	if res.Stats.PackedSelBlocks != int64(len(blocks)) {
		t.Fatalf("only %d of %d blocks took the packed path; the test would prove nothing",
			res.Stats.PackedSelBlocks, len(blocks))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.RunInto(res, blocks); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state packed batch run allocates %.1f/batch, want 0", allocs)
	}
}

// giantBlockCorpus is fpppp's unwindowed 11,750-instruction block —
// the one Table 3 block oracleCorpus leaves out, and the only one
// whose priority fields outgrow 14 bits — with a few tiny blocks
// after it, so a worker schedules small blocks on state the giant
// grew.
func giantBlockCorpus(t testing.TB) []*block.Block {
	t.Helper()
	p, _ := synth.ByName("fpppp")
	giant := slices.MaxFunc(p.Generate(), func(x, y *block.Block) int { return x.Len() - y.Len() })
	if giant.Len() != 11750 {
		t.Fatalf("fpppp's largest block has %d instructions, want 11750", giant.Len())
	}
	blocks := []*block.Block{giant}
	for i, n := range []int{3, 17, 64} {
		b := &block.Block{Name: "tiny", Insts: testgen.Block(int64(7100+i), n)}
		for k := range b.Insts {
			b.Insts[k].Index = k
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// TestPackedSelGiantBlock puts fpppp's giant block under the
// packed-selection identity gate: it must take the packed heap, its
// cycles and order must match the winnowing reference, and the
// scoreboard simulator — which times the order from raw def/use
// information, sharing no DAG or heuristic code with the engine —
// must agree with its cycle count.
func TestPackedSelGiantBlock(t *testing.T) {
	m := machine.Pipe1()
	blocks := giantBlockCorpus(t)
	ref, err := New(Config{Workers: 1, Model: m, KeepOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ref.workers {
		w.sc.DisablePacked = true
	}
	want, err := ref.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		e, err := New(Config{Workers: workers, Model: m, KeepOrders: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Run(blocks)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.PackedSelBlocks != int64(len(blocks)) {
			t.Errorf("w%d: %d of %d blocks took the packed path", workers, got.Stats.PackedSelBlocks, len(blocks))
		}
		for i, b := range blocks {
			if got.Cycles[i] != want.Cycles[i] {
				t.Fatalf("w%d block %d (%d insts): %d cycles, winnow %d",
					workers, i, b.Len(), got.Cycles[i], want.Cycles[i])
			}
			if !slices.Equal(got.Orders[i], want.Orders[i]) {
				t.Fatalf("w%d block %d (%d insts): order differs from winnow", workers, i, b.Len())
			}
			rt := resource.NewTable(resource.MemExprModel)
			rt.PrepareBlock(b.Insts)
			if sim := pipe.Simulate(b.Insts, got.Orders[i], m, rt).Cycles; sim != got.Cycles[i] {
				t.Fatalf("w%d block %d (%d insts): simulator completes in %d cycles, engine says %d",
					workers, i, b.Len(), sim, got.Cycles[i])
			}
		}
	}
}
