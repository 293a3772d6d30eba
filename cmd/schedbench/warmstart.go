// The -cachefile warm-start benchmark: prove the persistent schedule
// cache turns a process restart into a warm start. One engine runs the
// pooled mixed corpus against the cache file (cold when the file is
// fresh, warm when a previous process populated it), the engine is
// closed — flushing the write-behind queue — and a second, completely
// fresh engine reopens the file and runs the same corpus. The second
// engine's schedules must be byte-identical to a cache-disabled
// reference run, and the report states the cold→warm p50/p99 and
// insts/s deltas. -warmexpect makes the first pass itself the gate:
// the run fails unless that pass was served from the file (disk hits
// observed and overall hit rate at or above the threshold), which is
// how CI proves cross-process persistence with two schedbench
// invocations over one file.
package main

import (
	"fmt"

	"daginsched/internal/block"
	"daginsched/internal/engine"
	"daginsched/internal/machine"
	"daginsched/internal/tables"
)

// warmstartReport is the -cachefile section of BENCH_engine.json.
type warmstartReport struct {
	Blocks int   `json:"blocks"`
	Insts  int64 `json:"insts"`
	// FirstPass is the first engine's run: cold on a fresh file, warm
	// when an earlier process populated it (the -warmexpect case).
	FirstPass engine.Stats `json:"first_pass"`
	// Warm is a fresh engine's run after reopening the populated file —
	// the warm-start measurement proper.
	Warm engine.Stats `json:"warm"`
	// WarmSpeedup is warm insts/s over first-pass insts/s: how much a
	// restart gains from the persistent tier when the first pass was
	// cold.
	WarmSpeedup float64 `json:"warm_speedup"`
	// DeltaP50Micros/DeltaP99Micros are first-pass minus warm per-block
	// latency percentiles (positive = warm is faster).
	DeltaP50Micros float64 `json:"delta_p50_micros"`
	DeltaP99Micros float64 `json:"delta_p99_micros"`
	WarmHitRate    float64 `json:"warm_hit_rate"`
}

// runWarmstart executes the warm-start benchmark over the pooled mixed
// corpus and merges the report into the engine JSON at jsonPath.
func runWarmstart(sets []tables.BenchmarkSet, m *machine.Model, modelName string, cfg parallelConfig, cachePath string, warmExpect float64, jsonPath string) error {
	var mixed []*block.Block
	for _, set := range sets {
		mixed = append(mixed, set.Blocks...)
	}
	var insts int64
	for _, b := range mixed {
		insts += int64(b.Len())
	}

	// Both cache-file engines run the same configuration (KeepOrders
	// included), so first-pass vs warm is a like-for-like comparison.
	mk := func(path string) (*engine.Engine, error) {
		return engine.New(engine.Config{
			Workers: cfg.workers, Model: m, Builder: cfg.builder, Verify: cfg.verify,
			Cache: cfg.cache, CachePath: path, Crossover: cfg.crossoverFor(!cfg.adaptive),
			KeepOrders: true,
		})
	}

	// The identity yardstick: the same pipeline with no cache at all.
	refEngine, err := engine.New(engine.Config{
		Workers: cfg.workers, Model: m, Builder: cfg.builder, Verify: cfg.verify,
		Cache: false, Crossover: cfg.crossoverFor(!cfg.adaptive),
		KeepOrders: true,
	})
	if err != nil {
		return err
	}
	ref, err := refEngine.Run(mixed)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}

	first, err := mk(cachePath)
	if err != nil {
		return err
	}
	fmt.Printf("Warm-start benchmark: %d workers, model %s, %d blocks (%d insts), cache file %s\n",
		first.Workers(), modelName, len(mixed), insts, cachePath)
	fres, err := first.Run(mixed)
	if err != nil {
		first.Close()
		return fmt.Errorf("first pass: %w", err)
	}
	// Close drains the write-behind flusher, so everything the pass
	// memoized is on disk before the fresh engine opens the file.
	if err := first.Close(); err != nil {
		return fmt.Errorf("closing cache file: %w", err)
	}

	if warmExpect > 0 {
		if fres.Stats.DiskHits == 0 {
			return fmt.Errorf("-warmexpect %.2f: first pass served no blocks from %s (was the file populated by an earlier run?)", warmExpect, cachePath)
		}
		if fres.Stats.CacheHitRate < warmExpect {
			return fmt.Errorf("-warmexpect %.2f: first-pass hit rate %.4f below the threshold", warmExpect, fres.Stats.CacheHitRate)
		}
	}

	warm, err := mk(cachePath)
	if err != nil {
		return err
	}
	defer warm.Close()
	wres, err := warm.Run(mixed)
	if err != nil {
		return fmt.Errorf("warm pass: %w", err)
	}

	// Byte-identity: every warm-served schedule must equal the
	// cache-disabled reference exactly.
	for i := range mixed {
		if wres.Cycles[i] != ref.Cycles[i] {
			return fmt.Errorf("warm start diverged: block %d cycles %d, reference %d", i, wres.Cycles[i], ref.Cycles[i])
		}
		if len(wres.Orders[i]) != len(ref.Orders[i]) {
			return fmt.Errorf("warm start diverged: block %d order length %d, reference %d", i, len(wres.Orders[i]), len(ref.Orders[i]))
		}
		for k := range ref.Orders[i] {
			if wres.Orders[i][k] != ref.Orders[i][k] {
				return fmt.Errorf("warm start diverged: block %d position %d node %d, reference %d", i, k, wres.Orders[i][k], ref.Orders[i][k])
			}
		}
	}

	rep := warmstartReport{
		Blocks:         len(mixed),
		Insts:          insts,
		FirstPass:      fres.Stats,
		Warm:           wres.Stats,
		DeltaP50Micros: fres.Stats.P50Micros - wres.Stats.P50Micros,
		DeltaP99Micros: fres.Stats.P99Micros - wres.Stats.P99Micros,
		WarmHitRate:    wres.Stats.CacheHitRate,
	}
	if fres.Stats.InstsPerSec > 0 {
		rep.WarmSpeedup = wres.Stats.InstsPerSec / fres.Stats.InstsPerSec
	}

	fmt.Printf("  first pass %12.0f insts/s, p50 %6.1fus p99 %8.1fus, hit %5.1f%% (%d disk hits)\n",
		fres.Stats.InstsPerSec, fres.Stats.P50Micros, fres.Stats.P99Micros,
		fres.Stats.CacheHitRate*100, fres.Stats.DiskHits)
	fmt.Printf("  warm start %12.0f insts/s, p50 %6.1fus p99 %8.1fus, hit %5.1f%% (%d disk hits)\n",
		wres.Stats.InstsPerSec, wres.Stats.P50Micros, wres.Stats.P99Micros,
		wres.Stats.CacheHitRate*100, wres.Stats.DiskHits)
	fmt.Printf("  warm/first %11.2fx insts/s, p50 delta %+.1fus, p99 delta %+.1fus, schedules byte-identical to the cache-disabled reference\n",
		rep.WarmSpeedup, rep.DeltaP50Micros, rep.DeltaP99Micros)

	return mergeWarmstartReport(jsonPath, &rep)
}

// mergeWarmstartReport writes rep into the Warmstart slot of the
// engine JSON document, preserving every other section.
func mergeWarmstartReport(jsonPath string, rep *warmstartReport) error {
	doc, err := readEngineFileForMerge(jsonPath)
	if err != nil {
		return err
	}
	doc.Warmstart = rep
	if err := writeEngineFile(jsonPath, doc); err != nil {
		return err
	}
	fmt.Printf("\nwarm-start statistics merged into %s\n", jsonPath)
	return nil
}
