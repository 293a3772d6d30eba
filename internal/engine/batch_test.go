package engine

import (
	"strings"
	"testing"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/machine"
	"daginsched/internal/pipe"
	"daginsched/internal/resource"
	"daginsched/internal/sched"
	"daginsched/internal/tables"
	"daginsched/internal/testgen"
	verifier "daginsched/internal/verify"
)

// oracleCorpus is the mixed corpus the oracle and bin tests run over:
// every Table 3 synthetic benchmark except the impractically large
// full-fpppp variants, salted with extra generated blocks from 0 to 65
// instructions so tiny blocks are well represented.
func oracleCorpus(t testing.TB) []*block.Block {
	t.Helper()
	var blocks []*block.Block
	for _, set := range tables.Table3Sets() {
		if strings.HasPrefix(set.Name, "fpppp") && set.Name != "fpppp-1000" {
			continue
		}
		blocks = append(blocks, set.Blocks...)
	}
	for i, n := range []int{0, 1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 33, 48, 64, 65} {
		b := &block.Block{Name: "tiny", Insts: testgen.Block(int64(7000+i), n)}
		for k := range b.Insts {
			b.Insts[k].Index = k
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// oracleOptimalMax is the largest block TestPipelineMatchesOracles
// bounds from below with the branch-and-bound optimum. The corpus has
// 7,274 blocks of up to 8 instructions, and the search over them takes
// 0.30–0.37 s per machine model on a 2-core x86-64 host. Each further
// instruction costs about three times the last: the 216 blocks of 9
// take 0.4–0.5 s, the 207 of 10 another 1.1–1.4 s.
const oracleOptimalMax = 8

// TestPipelineMatchesOracles checks the engine's schedules for the
// corpus against oracles that share no code with its pipeline:
//
//   - the scoreboard simulator must time each order to the engine's
//     cycle count;
//   - verify must find the order legal against an independently built
//     forward-table DAG, and the simulator's issue cycles (mapped from
//     positions back to nodes) must meet that DAG's every arc delay
//     and the machine's issue width;
//   - on blocks small enough for branch and bound, the engine can be
//     no faster than the optimum over that forward-table DAG. The
//     summed gap (engine cycles minus optimum) is logged.
//
// The first two oracles also run over the chaos corpus (repeated
// blocks of up to 150 instructions, on a fault-free engine) and over
// fpppp's 11,750-instruction block.
func TestPipelineMatchesOracles(t *testing.T) {
	for _, m := range []*machine.Model{machine.Pipe1(), machine.Super2()} {
		t.Run(m.Name, func(t *testing.T) {
			blocks := oracleCorpus(t)
			res := runForOracles(t, m, blocks)
			rt := resource.NewTable(resource.MemExprModel)
			var optBlocks, gap, optCycles int64
			var optTime time.Duration
			for i, b := range blocks {
				checkSimulatorAndVerify(t, rt, m, b, res, i)
				if b.Len() > oracleOptimalMax {
					continue
				}
				rt.PrepareBlock(b.Insts)
				t0 := time.Now()
				opt := sched.BranchAndBound(dag.TableForward{}.Build(b, m, rt), m)
				optTime += time.Since(t0)
				if res.Cycles[i] < opt.Cycles {
					t.Errorf("block %d (%d insts): engine finishes in %d cycles, below the optimum %d",
						i, b.Len(), res.Cycles[i], opt.Cycles)
				}
				optBlocks++
				optCycles += int64(opt.Cycles)
				gap += int64(res.Cycles[i] - opt.Cycles)
			}
			t.Logf("%d blocks of at most %d insts: engine %d cycles over the optimum's %d (gap %d) [branch and bound %v]",
				optBlocks, oracleOptimalMax, optCycles+gap, optCycles, gap, optTime.Round(time.Millisecond))
		})
	}
	for _, c := range []struct {
		name   string
		blocks []*block.Block
		models []*machine.Model
	}{
		{"chaos", chaosCorpus(48, 5), []*machine.Model{machine.Pipe1(), machine.Super2()}},
		{"giant", giantBlockCorpus(t), []*machine.Model{machine.Pipe1()}},
	} {
		for _, m := range c.models {
			t.Run(c.name+"/"+m.Name, func(t *testing.T) {
				res := runForOracles(t, m, c.blocks)
				rt := resource.NewTable(resource.MemExprModel)
				for i, b := range c.blocks {
					checkSimulatorAndVerify(t, rt, m, b, res, i)
				}
			})
		}
	}
}

// runForOracles schedules blocks on an eight-worker engine that keeps
// its orders.
func runForOracles(t *testing.T, m *machine.Model, blocks []*block.Block) *BatchResult {
	t.Helper()
	e, err := New(Config{Workers: 8, Model: m, KeepOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkSimulatorAndVerify checks block i's schedule in res against the
// scoreboard simulator's timing and verify's legality, timing and
// width checks.
func checkSimulatorAndVerify(t *testing.T, rt *resource.Table, m *machine.Model, b *block.Block, res *BatchResult, i int) {
	t.Helper()
	order := res.Orders[i]
	rt.PrepareBlock(b.Insts)
	sim := pipe.Simulate(b.Insts, order, m, rt)
	if sim.Cycles != res.Cycles[i] {
		t.Fatalf("block %d (%d insts): simulator completes in %d cycles, engine says %d",
			i, b.Len(), sim.Cycles, res.Cycles[i])
	}
	issue := make([]int32, b.Len())
	for pos, node := range order {
		issue[node] = sim.Issue[pos]
	}
	r := &sched.Result{Order: order, Issue: issue, Cycles: res.Cycles[i]}
	if err := verifier.Schedule(b, m, r, resource.MemExprModel, 0); err != nil {
		t.Fatalf("block %d (%d insts): %v", i, b.Len(), err)
	}
}

// TestAdaptiveBinStats checks the per-bin accounting over two runs of
// one batch on a caching engine: every block lands in exactly one bin,
// each bin's cached count is 0 on the cold run and all of its blocks on
// the warm one, and the wall shares are a distribution.
func TestAdaptiveBinStats(t *testing.T) {
	m := machine.Pipe1()
	sizes := []int{1, 2, 3, 4, 5, 8, 9, 16, 40, 64, 65, 128, 129, 600}
	blocks := make([]*block.Block, len(sizes))
	for i, n := range sizes {
		b := &block.Block{Name: "bin", Insts: testgen.Block(int64(i), n)}
		for k := range b.Insts {
			b.Insts[k].Index = k
		}
		blocks[i] = b
	}
	wantPerBin := map[string]int64{
		"<=4": 4, "<=8": 2, "<=16": 2, "<=32": 0, "<=64": 2, "<=128": 2, "<=512": 1, ">512": 1,
	}
	e, err := New(Config{Workers: 3, Model: m, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	// The first run schedules every (distinct) block; the second is
	// served whole from the cache, so every bin's cached count goes from
	// none of its blocks to all of them.
	for run, cachedAll := range []bool{false, true} {
		res, err := e.Run(blocks)
		if err != nil {
			t.Fatal(err)
		}
		var tot, insts int64
		var share float64
		for _, bin := range res.Stats.Bins {
			if bin.Blocks != wantPerBin[bin.Label] {
				t.Errorf("run %d bin %s: %d blocks, want %d", run, bin.Label, bin.Blocks, wantPerBin[bin.Label])
			}
			want := int64(0)
			if cachedAll {
				want = bin.Blocks
			}
			if bin.CachedBlocks != want {
				t.Errorf("run %d bin %s: %d cached of %d blocks, want %d",
					run, bin.Label, bin.CachedBlocks, bin.Blocks, want)
			}
			tot += bin.Blocks
			insts += bin.Insts
			share += bin.WallShare
		}
		if tot != int64(len(blocks)) || insts != int64(res.Stats.Insts) {
			t.Errorf("run %d: bins cover %d blocks/%d insts, run had %d/%d",
				run, tot, insts, len(blocks), res.Stats.Insts)
		}
		if share < 0.999 || share > 1.001 {
			t.Errorf("run %d: wall shares sum to %f", run, share)
		}
	}
}

// TestEngineEmptyBatchRecycled runs a real batch and then recycles the
// result for an empty one: the guard must zero the stats and per-block
// slices without spawning workers (a regression test for the empty-
// slice guard in RunInto).
func TestEngineEmptyBatchRecycled(t *testing.T) {
	e, err := New(Config{Workers: 4, Model: machine.Pipe1(), KeepOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(testBlocks(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Blocks == 0 {
		t.Fatal("warm-up batch scheduled nothing")
	}
	if _, err := e.RunInto(res, []*block.Block{}); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Blocks != 0 || res.Stats.Insts != 0 || res.Stats.TotalCycles != 0 ||
		res.Stats.InstsPerSec != 0 || len(res.Stats.Bins) != 0 {
		t.Errorf("recycled empty batch stats: %+v", res.Stats)
	}
	if len(res.Cycles) != 0 || len(res.Arcs) != 0 || len(res.Orders) != 0 {
		t.Errorf("recycled empty batch kept %d cycles, %d arcs, %d orders",
			len(res.Cycles), len(res.Arcs), len(res.Orders))
	}
	if res.Stats.Workers != 4 {
		t.Errorf("empty batch reports %d workers", res.Stats.Workers)
	}
}
