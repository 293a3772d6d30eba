package engine

import (
	"testing"

	"daginsched/internal/fault"
	"daginsched/internal/machine"
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
	blocks := adaptiveCorpus(t)
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
