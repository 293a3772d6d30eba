package engine

import (
	"strings"
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/machine"
	"daginsched/internal/tables"
	"daginsched/internal/testgen"
)

// adaptiveCorpus is the mixed corpus the identity and bin tests run
// over: every Table 3 synthetic benchmark except the impractically
// large full-fpppp variants, salted with extra tiny blocks so the n²
// regime is well represented.
func adaptiveCorpus(t testing.TB) []*block.Block {
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

// TestAdaptiveMatchesFixed is the identity gate of adaptive dispatch:
// with the n² pipeline enabled — at the calibrated crossover and at
// the forced maximum — every block's cycle count, arc count and
// scheduled order must be byte-identical to the table-only pipeline's
// (Crossover -1: no block is routed to the n² builder).
func TestAdaptiveMatchesFixed(t *testing.T) {
	m := machine.Pipe1()
	blocks := adaptiveCorpus(t)
	fixed, err := New(Config{Workers: 8, Model: m, KeepOrders: true, Crossover: -1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fixed.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	for _, cross := range []int{0, 64} { // 0 = use the calibrated crossover
		ad, err := New(Config{Workers: 8, Model: m, KeepOrders: true, Crossover: cross})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ad.Run(blocks)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blocks {
			if got.Cycles[i] != want.Cycles[i] {
				t.Fatalf("crossover=%d block %d (%d insts): %d cycles, fixed %d",
					cross, i, blocks[i].Len(), got.Cycles[i], want.Cycles[i])
			}
			if got.Arcs[i] != want.Arcs[i] {
				t.Fatalf("crossover=%d block %d: %d arcs, fixed %d",
					cross, i, got.Arcs[i], want.Arcs[i])
			}
			for p := range want.Orders[i] {
				if got.Orders[i][p] != want.Orders[i][p] {
					t.Fatalf("crossover=%d block %d position %d: node %d, fixed %d",
						cross, i, p, got.Orders[i][p], want.Orders[i][p])
				}
			}
		}
		if cross == 64 {
			var n2 int64
			for _, bin := range got.Stats.Bins {
				n2 += bin.N2Blocks
			}
			if n2 == 0 {
				t.Error("forced crossover 64 routed no block to the n² pipeline")
			}
		}
		if got.Stats.Crossover != ad.Crossover() {
			t.Errorf("Stats.Crossover = %d, engine reports %d", got.Stats.Crossover, ad.Crossover())
		}
	}
}

// TestAdaptiveConfig pins the crossover resolution rules: clamping,
// the never-n² negative sentinel and calibration bounds.
func TestAdaptiveConfig(t *testing.T) {
	m := machine.Pipe1()
	mk := func(cfg Config) *Engine {
		t.Helper()
		cfg.Model = m
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if c := mk(Config{Crossover: 1000}).Crossover(); c != 64 {
		t.Errorf("Crossover 1000 resolved to %d, want clamp to 64", c)
	}
	if c := mk(Config{Crossover: -1}).Crossover(); c != 0 {
		t.Errorf("Crossover -1 resolved to %d, want 0", c)
	}
	if c := mk(Config{Crossover: 7}).Crossover(); c != 7 {
		t.Errorf("Crossover 7 resolved to %d", c)
	}
	if c := mk(Config{}).Crossover(); c < 0 || c > 64 {
		t.Errorf("calibrated crossover %d outside [0, 64]", c)
	}
}

// TestAdaptiveBinStats checks the per-bin accounting: every block
// lands in exactly one bin, pipeline tags partition the bin, and the
// wall shares are a distribution.
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
	for _, cross := range []int{-1, 64} {
		e, err := New(Config{Workers: 3, Model: m, Crossover: cross})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(blocks)
		if err != nil {
			t.Fatal(err)
		}
		var tot, insts int64
		var share float64
		for _, bin := range res.Stats.Bins {
			if bin.Blocks != wantPerBin[bin.Label] {
				t.Errorf("crossover=%d bin %s: %d blocks, want %d", cross, bin.Label, bin.Blocks, wantPerBin[bin.Label])
			}
			if got := bin.N2Blocks + bin.TableBlocks + bin.CachedBlocks; got != bin.Blocks {
				t.Errorf("crossover=%d bin %s: pipeline tags sum to %d of %d blocks", cross, bin.Label, got, bin.Blocks)
			}
			if cross < 0 && bin.N2Blocks != 0 {
				t.Errorf("negative crossover ran %d n² blocks in bin %s", bin.N2Blocks, bin.Label)
			}
			tot += bin.Blocks
			insts += bin.Insts
			share += bin.WallShare
		}
		if tot != int64(len(blocks)) || insts != int64(res.Stats.Insts) {
			t.Errorf("crossover=%d bins cover %d blocks/%d insts, run had %d/%d",
				cross, tot, insts, len(blocks), res.Stats.Insts)
		}
		if share < 0.999 || share > 1.001 {
			t.Errorf("crossover=%d wall shares sum to %f", cross, share)
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

// TestEngineAdaptiveSteadyStateZeroAlloc pins the zero-allocation
// property with the n² pipeline forced on for every mask-capable
// block — the adaptive counterpart of TestEngineSteadyStateZeroAlloc.
func TestEngineAdaptiveSteadyStateZeroAlloc(t *testing.T) {
	m := machine.Pipe1()
	blocks := testBlocks(t, 20)
	e, err := New(Config{Workers: 1, Model: m, KeepOrders: true, Crossover: 64})
	if err != nil {
		t.Fatal(err)
	}
	res := new(BatchResult)
	if _, err := e.RunInto(res, blocks); err != nil {
		t.Fatal(err)
	}
	var n2 int64
	for _, bin := range res.Stats.Bins {
		n2 += bin.N2Blocks
	}
	if n2 == 0 {
		t.Fatal("no block took the n² pipeline; the test would prove nothing")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.RunInto(res, blocks); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state adaptive batch run allocates %.1f/batch, want 0", allocs)
	}
}
