// The -stream benchmark: drive the engine's streaming pipeline from
// the constant-memory synthetic producer until a target instruction
// count has flowed through, and report steady-state throughput, queue
// occupancy and the process RSS high-water mark. A batch-mode run over
// the mixed corpus is measured alongside so the report can state the
// stream/batch throughput ratio (the acceptance bar: streaming should
// cost at most a few percent over batch, because ingestion and
// generation overlap scheduling instead of preceding it).
package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/engine"
	"daginsched/internal/machine"
	"daginsched/internal/synth"
)

// streamReport is the -stream section of BENCH_engine.json.
type streamReport struct {
	// InstsRequested is the -insts target; Blocks/Insts are what
	// actually flowed (the stream stops at a block boundary).
	InstsRequested int64        `json:"insts_requested"`
	Blocks         int64        `json:"blocks"`
	Insts          int64        `json:"insts"`
	Depth          int          `json:"depth"`
	Stats          engine.Stats `json:"stats"`
	// RSSHighWaterKB is the kernel's peak-resident-set figure
	// (VmHWM) after the run — the bounded-memory witness. Zero where
	// /proc is unavailable.
	RSSHighWaterKB int64 `json:"rss_high_water_kb"`
	// HeapPeakBytes is the largest runtime.MemStats.HeapAlloc observed
	// by a 100ms sampler during the stream.
	HeapPeakBytes uint64 `json:"heap_peak_bytes"`
	// BatchInstsPerSec is a warmed batch-mode Run over the mixed
	// corpus on an identically configured engine; StreamVsBatch is
	// stream insts/sec over batch insts/sec.
	BatchInstsPerSec float64 `json:"batch_insts_per_sec"`
	StreamVsBatch    float64 `json:"stream_vs_batch"`
}

// runStream executes the streaming benchmark and merges the report
// into the engine JSON document at jsonPath (preserving any batch
// sections already recorded there).
func runStream(m *machine.Model, modelName string, cfg parallelConfig, insts float64, depth int, benchFilter string, jsonPath string) error {
	profiles := synth.Profiles()
	if benchFilter != "" {
		var keep []synth.Profile
		for _, p := range profiles {
			if strings.HasPrefix(p.Name, benchFilter) {
				keep = append(keep, p)
			}
		}
		if len(keep) == 0 {
			return fmt.Errorf("-stream: no synthetic profile matches %q", benchFilter)
		}
		profiles = keep
	}
	target := int64(insts)
	if target <= 0 {
		return fmt.Errorf("-insts %v: want a positive instruction target", insts)
	}
	mk := func() (*engine.Engine, error) {
		return engine.New(engine.Config{
			Workers: cfg.workers, Model: m, Verify: cfg.verify,
			Cache: cfg.cache, Crossover: cfg.crossoverFor(!cfg.adaptive),
			StreamDepth: depth,
		})
	}
	e, err := mk()
	if err != nil {
		return err
	}

	fmt.Printf("Streaming engine: %d workers, model %s, cache %v, adaptive %v, depth %d, target %d insts\n",
		e.Workers(), modelName, cfg.cache, cfg.adaptive, depth, target)

	// Warm the worker arenas (and calibration already ran inside New)
	// on one small pass so the measured stream sees the steady state.
	warm := make(chan *block.Block, 64)
	go synth.StreamCorpus(context.Background(), profiles, 0, warm, nil)
	if _, err := e.RunStream(context.Background(), warm, nil); err != nil {
		return err
	}

	// The freelist is what bounds producer-side memory: the sink feeds
	// finished blocks back and the producer reuses them, so the blocks
	// in circulation are the ones in the pipeline's queues plus this
	// slack. Sends are non-blocking on both sides; a full freelist
	// just lets the garbage collector take the block.
	free := make(chan *block.Block, 4*depth+256)
	src := make(chan *block.Block, 64)

	heapPeak := uint64(0)
	sampleDone := make(chan struct{})
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		var ms runtime.MemStats
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sampleDone:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > heapPeak {
					heapPeak = ms.HeapAlloc
				}
			}
		}
	}()

	var prodBlocks, prodInsts int64
	var prodErr error
	var prodWG sync.WaitGroup
	prodWG.Add(1)
	go func() {
		defer prodWG.Done()
		prodBlocks, prodInsts, prodErr = synth.StreamCorpus(context.Background(), profiles, target, src, free)
	}()
	sink := func(o engine.BlockOutcome) {
		select {
		case free <- o.Block:
		default: // freelist full; let the GC have it
		}
	}
	stats, err := e.RunStream(context.Background(), src, sink)
	prodWG.Wait()
	close(sampleDone)
	sampleWG.Wait()
	if err != nil {
		return err
	}
	if prodErr != nil {
		return prodErr
	}

	rep := streamReport{
		InstsRequested: target,
		Blocks:         prodBlocks,
		Insts:          prodInsts,
		Depth:          stats.StreamDepth,
		Stats:          stats,
		RSSHighWaterKB: rssHighWaterKB(),
		HeapPeakBytes:  heapPeak,
	}

	// Batch yardstick on a fresh engine with the same configuration:
	// warm arenas and cache on pass 0, then time pass 1 — fresh block
	// content, exactly what the stream's steady state sees — including
	// its generation, because batch mode has to materialize a corpus
	// before the first block can be scheduled. (Timing a second pass
	// over the *same* corpus would measure the cache serving ~100%
	// hits, a workload the stream never sees.)
	be, err := mk()
	if err != nil {
		return err
	}
	var warmup []*block.Block
	for _, p := range profiles {
		warmup = append(warmup, p.Generate()...)
	}
	res := new(engine.BatchResult)
	if _, err := be.RunInto(res, warmup); err != nil {
		return err
	}
	bt0 := time.Now()
	var passB []*block.Block
	for _, p := range profiles {
		passB = append(passB, p.GeneratePass(1)...)
	}
	if _, err := be.RunInto(res, passB); err != nil {
		return err
	}
	if secs := time.Since(bt0).Seconds(); secs > 0 {
		rep.BatchInstsPerSec = float64(res.Stats.Insts) / secs
	}
	if rep.BatchInstsPerSec > 0 {
		rep.StreamVsBatch = stats.InstsPerSec / rep.BatchInstsPerSec
	}

	fmt.Printf("  streamed   %12d insts in %d blocks, %.2fs wall\n", prodInsts, prodBlocks, stats.WallSeconds)
	fmt.Printf("  throughput %12.0f insts/s stream, %12.0f insts/s batch (ratio %.3f)\n",
		stats.InstsPerSec, rep.BatchInstsPerSec, rep.StreamVsBatch)
	fmt.Printf("  queues     bigQ peak %d/%d blocks, smallQ peak %d chunks, reorder peak %d pending\n",
		stats.BigQueuePeak, stats.StreamDepth, stats.SmallQueuePeak, stats.PendingPeak)
	fmt.Printf("  memory     RSS high-water %d KB, heap peak %d KB\n",
		rep.RSSHighWaterKB, heapPeak/1024)
	fmt.Printf("  latency    p50 %.1fus p99 %.1fus, degraded %d, cache hit %.1f%%\n",
		stats.P50Micros, stats.P99Micros, stats.DegradedBlocks, stats.CacheHitRate*100)

	return mergeStreamReport(jsonPath, &rep)
}

// mergeStreamReport writes rep into the Stream slot of the engine
// JSON document, preserving an existing document's batch sections.
func mergeStreamReport(jsonPath string, rep *streamReport) error {
	doc, err := readEngineFileForMerge(jsonPath)
	if err != nil {
		return err
	}
	doc.Stream = rep
	if err := writeEngineFile(jsonPath, doc); err != nil {
		return err
	}
	fmt.Printf("\nstream statistics merged into %s\n", jsonPath)
	return nil
}

// rssHighWaterKB reads the process's peak resident set (VmHWM) from
// /proc/self/status, or 0 where that interface does not exist.
func rssHighWaterKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) == 0 {
			return 0
		}
		v, err := strconv.ParseInt(string(fields[0]), 10, 64)
		if err != nil {
			return 0
		}
		return v
	}
	return 0
}
