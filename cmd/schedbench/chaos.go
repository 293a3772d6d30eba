// The -chaos mode: a runnable fault-injection gate over the hardened
// engine. A seeded fault.Plan fires panics inside the DAG builder,
// corrupts arc mirrors, flips bits in cache-served schedules and
// stalls pipeline attempts across the selected benchmark corpus; the
// gate then demands what CI demands:
//
//   - the batch completes, with every schedule passing the engine's
//     output gate and the independent scoreboard simulator
//     (Config.Verify is forced on);
//   - a meaningful share of blocks was actually faulted (the faulted
//     set is recomputed here, outside the engine, as a pure function
//     of the plan and each block's content fingerprint);
//   - every block — faulted blocks included, since no deadline is
//     armed and every recovery rung is byte-identical to the primary
//     pipeline — matches a fault-free run of the same corpus exactly;
//   - the hardening tallies show the machinery actually ran
//     (faults injected, quarantines, gate failures, demotions).
package main

import (
	"fmt"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/engine"
	"daginsched/internal/fault"
	"daginsched/internal/machine"
	"daginsched/internal/tables"
)

// chaosConfig carries the -chaos flag group.
type chaosConfig struct {
	seed    uint64
	rate    float64 // panic/corrupt rate; bitflip runs hotter, stalls cooler
	workers int
}

// chaosWorkers is the default pool size for the gate: wide enough that
// recovery races real concurrent neighbors.
const chaosWorkers = 8

// minFaultedPercent is the gate's floor on the share of corpus blocks
// the plan must actually fault for the run to prove anything.
const minFaultedPercent = 5

func runChaos(sets []tables.BenchmarkSet, m *machine.Model, cc chaosConfig) error {
	var blocks []*block.Block
	for _, s := range sets {
		blocks = append(blocks, s.Blocks...)
	}
	if len(blocks) == 0 {
		return fmt.Errorf("no blocks in the selected corpus")
	}
	workers := cc.workers
	if workers <= 0 {
		workers = chaosWorkers
	}
	bitflip := cc.rate * 4
	if bitflip > 1 {
		bitflip = 1
	}
	plan := &fault.Plan{
		Seed:         cc.seed,
		PanicBuilder: cc.rate,
		CorruptArc:   cc.rate,
		CacheBitflip: bitflip,
		SlowBlock:    cc.rate / 2,
		SlowDelay:    100 * time.Microsecond,
	}
	base := engine.Config{
		Workers:    workers,
		Model:      m,
		KeepOrders: true,
		Verify:     true,
		Cache:      true,
	}

	clean, err := engine.New(base)
	if err != nil {
		return err
	}
	want, err := clean.Run(blocks)
	if err != nil {
		return fmt.Errorf("fault-free run: %w", err)
	}

	cfg := base
	cfg.FaultPlan = plan
	chaotic, err := engine.New(cfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	got, err := chaotic.Run(blocks)
	if err != nil {
		return fmt.Errorf("chaos run: %w", err)
	}
	wall := time.Since(t0)

	// Recompute the faulted set outside the engine: a pure function of
	// the plan and each block's content fingerprint.
	inj, err := fault.NewInjector(plan)
	if err != nil {
		return err
	}
	faulted, mismatched := 0, 0
	for i, b := range blocks {
		if inj.Any(engine.BlockKey(b.Insts)) {
			faulted++
		}
		same := got.Cycles[i] == want.Cycles[i] && len(got.Orders[i]) == len(want.Orders[i])
		for k := 0; same && k < len(want.Orders[i]); k++ {
			same = got.Orders[i][k] == want.Orders[i][k]
		}
		if !same {
			mismatched++
		}
	}
	var rungs [4]int
	for _, rg := range got.Rungs {
		rungs[rg]++
	}
	st := got.Stats

	fmt.Printf("Chaos gate: seed %d, rate %.2f, %d workers, %d blocks (%d benchmarks), wall %.2fs\n",
		cc.seed, cc.rate, workers, len(blocks), len(sets), wall.Seconds())
	fmt.Printf("  faulted blocks     %6d (%.1f%%)\n", faulted, 100*float64(faulted)/float64(len(blocks)))
	fmt.Printf("  rungs              primary %d  table %d  n2 %d  identity %d\n",
		rungs[engine.RungPrimary], rungs[engine.RungTable], rungs[engine.RungN2], rungs[engine.RungIdentity])
	fmt.Printf("  faults injected    %6d\n", st.FaultsInjected)
	fmt.Printf("  quarantines        %6d\n", st.Quarantines)
	fmt.Printf("  gate failures      %6d\n", st.GateFailures)
	fmt.Printf("  demotions          %6d (degraded blocks %d)\n", st.Demotions, st.DegradedBlocks)
	fmt.Printf("  mismatched blocks  %6d\n", mismatched)

	if 100*faulted < minFaultedPercent*len(blocks) {
		return fmt.Errorf("plan faulted %d/%d blocks, below the %d%% floor", faulted, len(blocks), minFaultedPercent)
	}
	if mismatched > 0 {
		return fmt.Errorf("%d blocks differ from the fault-free run", mismatched)
	}
	if st.FaultsInjected == 0 || st.Quarantines == 0 || st.GateFailures == 0 || st.Demotions == 0 {
		return fmt.Errorf("hardening machinery idle: faults %d, quarantines %d, gate failures %d, demotions %d",
			st.FaultsInjected, st.Quarantines, st.GateFailures, st.Demotions)
	}
	fmt.Println("chaos gate: PASS")
	return nil
}
