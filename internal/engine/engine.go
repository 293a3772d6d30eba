// Package engine is the batch scheduling engine: it fans the basic
// blocks of a compilation unit across a pool of workers, each owning
// the full set of reusable scratch structures — a resource.Table, a
// dag.BuildArena, a heur.Annot and a sched.Scratch (whose State holds
// the winnowing selector's survivor buffers) — so the steady-state
// per-block pipeline (prepare → build → heuristics → schedule) performs
// no allocations once every buffer has grown to the stream's largest
// block.
//
// The pipeline is one and fixed, for blocks of every size: prepare the
// resource table, build the DAG by backward table building, freeze it
// into packed arc records, compute every heuristic in one fused sweep
// over them (the paper's third approach, Section 6), select through
// the packed-priority heap, and gate the result. The table state's
// reset clears only the resources the previous block wrote, so a tiny
// block pays for its own instructions (the paper's Tables 4–5 find
// table building linear in block size). Forward table building, the
// n² builders and the Table 3 DAG statistics are reproduced by
// internal/tables, which calls the dag builders directly.
//
// Every Run/RunSource call checks workers out of a free list — one,
// waited for, plus whatever others are free — and returns them on
// exit, so concurrent callers each get a bounded share of the pool and
// a lone caller gets all of it.
//
// Both entry points share one per-block function (worker.run) and one
// claim loop, which asks a work source for its next run of blocks (see
// stream.go): Run's workers claim from the batch, largest block first,
// by atomic cursors; RunSource's pull blocks from its BlockSource
// themselves, under a claim lock (RunStream is RunSource's adapter
// for a channel of blocks). Each result lands in its block's slot
// (Run) or its sequence number's ring slot (RunSource), so the output
// is byte-identical to a serial run of the same pipeline regardless of
// worker count or interleaving.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/buf"
	"daginsched/internal/dag"
	"daginsched/internal/diskcache"
	"daginsched/internal/fault"
	"daginsched/internal/heur"
	"daginsched/internal/machine"
	"daginsched/internal/pipe"
	"daginsched/internal/resource"
	"daginsched/internal/sched"
)

// Config configures an Engine.
type Config struct {
	// Workers is the worker-pool size, shared by concurrent runs;
	// <= 0 means GOMAXPROCS.
	Workers int
	// Model is the target machine. Required.
	Model *machine.Model
	// KeepOrders is ignored: every run keeps each block's scheduled
	// order.
	//
	// Deprecated: orders are always kept, so there is nothing to set.
	KeepOrders bool
	// Verify re-times every schedule on the pipe scoreboard simulator —
	// an independent witness that never consults the DAG — and fails
	// the run on any cycle disagreement. Cache hits are re-simulated
	// too: a memoized schedule gets the same independent witness as a
	// freshly computed one.
	Verify bool
	// Cache enables the block-fingerprint schedule cache: repeated
	// blocks skip DAG construction, heuristics and scheduling, copying
	// the memoized schedule into the result slot. Output is
	// byte-identical with the cache on or off.
	Cache bool
	// CacheCap bounds the cache's total entry count (<= 0 means a
	// 65536-entry default). Eviction is CLOCK (second-chance) per
	// shard, so a hot working set survives cap pressure.
	CacheCap int
	// CachePath backs the schedule cache with a persistent second tier:
	// a memory-mapped, crash-safe, content-keyed file at this path
	// (created if missing), shared across processes and engine restarts.
	// An L1 miss probes the file before scheduling; a healthy primary
	// result is written behind by a flusher goroutine, so workers never
	// block on disk. Setting it implies Cache. Call Engine.Close to
	// flush and release the file. Entries are keyed on the machine
	// model as well as the block, so engines for different models can
	// share one file without serving each other's schedules.
	CachePath string
	// Crossover is ignored: every block takes the one table pipeline.
	//
	// Deprecated: the engine no longer routes small blocks to an n²
	// builder, so there is no threshold to set.
	Crossover int
	// BlockTimeout is the per-block soft deadline: a block whose
	// pipeline attempt outlives it is demoted to the ladder's
	// bounded-work identity rung instead of hanging a worker. The check
	// is cooperative (post-construction checkpoint, injected stalls),
	// not preemptive. Zero disables deadlines; negative is rejected.
	BlockTimeout time.Duration
	// FaultPlan enables deterministic fault injection (chaos testing):
	// seed-driven panic-in-builder, corrupt-arc, cache-bitflip and
	// slow-block faults keyed on block content, so the faulted set is
	// identical across worker counts and interleavings. Nil (or an
	// all-zero plan) compiles every injection point to a nil check.
	FaultPlan *fault.Plan
}

// Stats summarizes one run of either entry point: the work done, its
// throughput and per-block latency, the cache and hardening tallies,
// and the stream's reorder peak.
type Stats struct {
	// Workers is the size of the crew that served the run.
	Workers     int     `json:"workers"`
	Blocks      int     `json:"blocks"`
	Insts       int64   `json:"insts"`
	Arcs        int64   `json:"arcs"`
	TotalCycles int64   `json:"total_cycles"`
	WallSeconds float64 `json:"wall_seconds"`
	InstsPerSec float64 `json:"insts_per_sec"`
	// P50Micros and P99Micros are per-block latency percentiles read
	// from a log-scale histogram (4 sub-buckets per octave, so about 12%
	// bucket resolution) on both entry points.
	P50Micros float64 `json:"p50_block_micros"`
	P99Micros float64 `json:"p99_block_micros"`
	// CacheHits/CacheMisses count schedule-cache outcomes for the run
	// (both zero when the cache is disabled); DiskHits counts blocks
	// served from the persistent tier (a subset of neither — an L1 hit
	// counts as CacheHits, a disk hit as DiskHits, and CacheMisses only
	// counts blocks that missed both tiers and ran the pipeline);
	// CacheHitRate is (CacheHits+DiskHits)/(CacheHits+DiskHits+CacheMisses).
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	DiskHits     int64   `json:"disk_hits,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Bins breaks the run down by block-size bin.
	Bins []BinStats `json:"bins,omitempty"`
	// PackedSelBlocks counts blocks whose schedule was selected through
	// the packed-priority heap (zero for blocks served from cache,
	// degraded rungs, or whose priority packing overflowed the exact
	// field widths).
	PackedSelBlocks int64 `json:"packed_sel_blocks,omitempty"`
	// Hardening tallies, all zero on a healthy fault-free run:
	// Quarantines counts worker-scratch discards (panic or gate
	// failure), Demotions counts rung descents, GateFailures counts
	// schedules the output gate rejected, FaultsInjected counts
	// injection events fired by Config.FaultPlan, and DegradedBlocks
	// counts blocks served below RungPrimary.
	Quarantines    int64 `json:"quarantines,omitempty"`
	Demotions      int64 `json:"demotions,omitempty"`
	GateFailures   int64 `json:"gate_failures,omitempty"`
	FaultsInjected int64 `json:"faults_injected,omitempty"`
	DegradedBlocks int64 `json:"degraded_blocks,omitempty"`
	// BigQueuePeak and SmallQueuePeak are always zero.
	//
	// Deprecated: RunStream's workers claim straight from its source,
	// so there are no ingest queues to measure.
	BigQueuePeak   int `json:"big_queue_peak,omitempty"`
	SmallQueuePeak int `json:"small_queue_peak,omitempty"`
	// PendingPeak, set by the streaming runs (RunSource and RunStream)
	// only, is the reorder ring's high-water mark: the most outcomes
	// that were ever scheduled-but-unemitted at once.
	PendingPeak int `json:"pending_peak,omitempty"`
}

// BatchResult is the outcome of one Run, indexed by block position.
// Its slices are owned by the result and recycled by RunInto.
type BatchResult struct {
	// Cycles is each block's schedule completion time.
	Cycles []int32
	// Arcs is each block's DAG arc count.
	Arcs []int32
	// Orders holds each block's scheduled order, copied out of worker
	// scratch; the subslices share one flat arena.
	Orders [][]int32
	// Rungs records which degradation-ladder rung served each block;
	// all RungPrimary on a healthy run. A block at RungIdentity kept
	// its original program order (and reports zero Arcs — that rung
	// never builds a DAG).
	Rungs []Rung
	// Stats is the run summary.
	Stats Stats

	orderArena []int32
	errs       []error // per-block verify outcome (Verify only)
}

// tally is one worker's per-run counters. Each worker owns its tally
// exclusively, so the hot path updates it without synchronization; a
// run resets its crew's tallies on entry, sums them into Stats once
// the crew drains, and a quarantine carries the tally across its
// scratch swap.
type tally struct {
	blocks, insts, arcs, cycles, degraded int64
	// Schedule-cache outcomes: L1 hits, L2 (disk) hits, and misses of
	// both tiers that ran the pipeline.
	hits, diskHits, misses int64
	// packedBlocks counts blocks scheduled through the packed-priority
	// heap, summed into Stats.PackedSelBlocks.
	packedBlocks int64
	// Hardening tallies: quarantines, rung descents, gate rejections
	// and injection events fired.
	quars, demoted, gateFails, faults int64
	// bins are the size-bin tallies behind Stats.Bins.
	bins [nBins]binAcc
	// hist is the per-block wall-time histogram behind the percentiles.
	hist [streamHistBuckets]int64
}

// worker is one pool member's private scratch: every structure here is
// recycled block to block and never shared.
type worker struct {
	e   *Engine // the owner: configuration, cache tiers, dispatch state
	rt  *resource.Table
	ar  dag.BuildArena
	a   *heur.Annot
	sc  sched.Scratch
	sel sched.Selector

	// Schedule-cache scratch: the recycled key-encoding buffer and a
	// Result shell for re-verifying cached hits.
	enc    []byte
	hitRes sched.Result
	// l2 is the recycled decode target of the disk-tier probe (its
	// slices grow once to the corpus's largest block, then every warm
	// hit is allocation-free).
	l2 diskcache.Entry

	tally

	// chunk is the claim loop's buffer: the run of items the worker
	// claimed last (see workSource).
	chunk [chunkSize]streamItem

	// Hardening state. inj is the engine's fault injector (nil without
	// a FaultPlan); deadline is the current block's soft deadline (zero
	// when Config.BlockTimeout is unset); hookPanic/hookCorrupt are the
	// one-shot injection hooks armed per block at ladder entry and
	// consumed by the first buildCheckpoint; hookKey is the block's
	// content fingerprint the hooks key on.
	inj         *fault.Injector
	deadline    time.Time
	hookPanic   bool
	hookCorrupt bool
	hookKey     uint64
	// gateSeen is the output gate's recycled exactly-once scratch;
	// flip is the scratch copy a cache-bitflip fault poisons (the
	// shared cache entry is never touched); idOrder/idRes back the
	// identity rung's result.
	gateSeen []int32
	flip     []int32
	idOrder  []int32
	idRes    sched.Result
}

// newWorker builds one worker's scratch for model m; New attaches the
// engine and its fault injector.
func newWorker(m *machine.Model) *worker {
	return &worker{
		rt:  resource.NewTable(resource.MemExprModel),
		a:   heur.New(nil, m),
		sel: sched.Winnow(sched.Section6Ranked()),
	}
}

// schedule runs the per-block pipeline in worker scratch: prepare the
// resource table, build the DAG by plain backward table building (the
// builder freezes it into its packed CSR view), compute every
// heuristic (and pack the selector's priority words) in one fused
// sweep over the packed successor records, then list-schedule over the
// same arrays.
// The fused sweep computes everything the selector reads, so no
// construction observer is needed. The returned Result and DAG are
// worker-owned and valid only until the worker's next block.
func (w *worker) schedule(b *block.Block, m *machine.Model) (*sched.Result, *dag.DAG) {
	w.rt.PrepareBlock(b.Insts)
	d := dag.TableBackward{}.BuildInto(&w.ar, b, m, w.rt)
	w.buildCheckpoint(d)
	w.a.D = d
	w.a.ComputeFusedCSR()
	r := w.sc.Forward(d, m, w.a, w.sel)
	if w.sc.UsedPacked() {
		w.packedBlocks++
	}
	return r, d
}

// Engine is a reusable batch scheduler. Create one with New, then call
// Run (or RunInto) any number of times, from any number of goroutines;
// workers and their scratch arenas persist across runs, which is what
// makes repeated batches allocation-free in steady state.
type Engine struct {
	cfg Config
	// workers is the pool, fixed by New. free holds the members no run
	// has checked out: a worker belongs to at most one run at a time,
	// which is all the exclusion its scratch needs. crews recycles
	// per-run state, one per worker since every run has a lead.
	workers []*worker
	free    chan *worker
	crews   chan *crew
	// cache is the block-fingerprint schedule cache (nil unless
	// Config.Cache). It persists across Run calls, so a corpus that
	// repeats — or a second run over the same corpus — hits.
	cache *schedCache
	// disk is the persistent second tier behind cache (nil unless
	// Config.CachePath); see disk.go. Cleared by Engine.Close.
	disk *diskTier
	// diskPending is the disk tier's write-behind backlog; it lives
	// here so DiskPending can read it while Close clears disk.
	diskPending atomic.Int64
	// inj is the compiled fault injector; nil unless Config.FaultPlan
	// injects something.
	inj *fault.Injector
	// streamDepth is RunStream's reorder slack: the package constant,
	// which tests shrink to force backpressure.
	streamDepth int
	closeOnce   sync.Once // Close releases the disk tier once
}

// crew is one run's workers, lead first, plus the per-run state
// recycled beside them (a quarantine overwrites a whole worker).
type crew struct {
	workers []*worker
	// batch is Run's work source (see prefill); slots is RunStream's
	// reorder ring.
	batch batchSource
	slots []streamSlot
	// wg joins the spawned workers: a field, not a local of work, which
	// the goroutines' closure would move to the heap.
	wg sync.WaitGroup
}

// checkout hands a run its crew, tallies zeroed: it waits for a lead
// worker until one is free or done closes (reporting false), then adds
// every other worker free at that moment without waiting.
func (e *Engine) checkout(done <-chan struct{}) (*crew, bool) {
	var lead *worker
	select {
	case lead = <-e.free:
	case <-done:
		return nil, false
	}
	c := <-e.crews
	c.workers = append(c.workers[:0], lead)
fill:
	for range cap(c.workers) - 1 {
		select {
		case w := <-e.free:
			c.workers = append(c.workers, w)
		default:
			break fill
		}
	}
	for _, w := range c.workers {
		w.tally = tally{}
	}
	return c, true
}

// release returns c's workers, lead first — so a lone caller keeps one
// lead rather than growing every worker's scratch in turn — then c.
func (e *Engine) release(c *crew) {
	for _, w := range c.workers {
		e.free <- w
	}
	e.crews <- c
}

// New validates cfg and builds the worker pool. Every rejected Config
// comes back as a *ConfigError wrapping ErrConfig.
func New(cfg Config) (*Engine, error) {
	if err := (&cfg).validate(); err != nil {
		return nil, err
	}
	inj, err := fault.NewInjector(cfg.FaultPlan)
	if err != nil {
		// validate already vetted the plan; this is belt and braces.
		return nil, &ConfigError{Field: "FaultPlan", Value: cfg.FaultPlan, Reason: err.Error()}
	}
	n := cfg.Workers
	e := &Engine{cfg: cfg, workers: make([]*worker, n), free: make(chan *worker, n), crews: make(chan *crew, n), inj: inj, streamDepth: streamDepth}
	for i := range e.workers {
		e.workers[i] = newWorker(cfg.Model)
		e.workers[i].e, e.workers[i].inj = e, inj
		e.free <- e.workers[i]
		e.crews <- &crew{workers: make([]*worker, 0, n)}
	}
	if cfg.Cache {
		e.cache = newSchedCache(cfg.CacheCap)
	}
	if cfg.CachePath != "" {
		// A damaged or unopenable file is a runtime failure, not a
		// ConfigError: the Config itself is fine.
		disk, err := newDiskTier(cfg.CachePath, modelKey(cfg.Model), &e.diskPending)
		if err != nil {
			return nil, fmt.Errorf("engine: opening cache file %s: %w", cfg.CachePath, err)
		}
		e.disk = disk
	}
	return e, nil
}

// Crossover always returns 0: no block is routed to an n² builder.
//
// Deprecated: the engine has one pipeline for blocks of every size.
func (e *Engine) Crossover() int { return 0 }

// Workers returns the pool size.
func (e *Engine) Workers() int { return len(e.workers) }

// Run schedules every block and returns a fresh BatchResult.
func (e *Engine) Run(blocks []*block.Block) (*BatchResult, error) {
	return e.RunIntoCtx(context.Background(), new(BatchResult), blocks)
}

// RunCtx is Run with cooperative cancellation: a run still waiting for
// a free worker returns at once; workers check ctx at every block claim
// and stop claiming once it is done (a claimed block is never abandoned
// half-written). A cancelled run returns ctx's error; the result's
// contents are then partial and its Stats are not computed.
//
//sched:cancellable
func (e *Engine) RunCtx(ctx context.Context, blocks []*block.Block) (*BatchResult, error) {
	return e.RunIntoCtx(ctx, new(BatchResult), blocks)
}

// RunInto is Run recycling a previous BatchResult's storage.
func (e *Engine) RunInto(res *BatchResult, blocks []*block.Block) (*BatchResult, error) {
	return e.RunIntoCtx(context.Background(), res, blocks)
}

// RunIntoCtx is RunCtx recycling a previous BatchResult's storage.
//
//sched:cancellable
func (e *Engine) RunIntoCtx(ctx context.Context, res *BatchResult, blocks []*block.Block) (*BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c, ok := e.checkout(ctx.Done())
	if !ok {
		return res, fmt.Errorf("engine: run cancelled: %w", ctx.Err())
	}
	defer e.release(c)
	nb := len(blocks)
	res.Cycles = buf.Int32(res.Cycles, nb)
	res.Arcs = buf.Int32(res.Arcs, nb)
	total := 0
	for _, b := range blocks {
		total += b.Len()
	}
	res.orderArena = buf.Int32(res.orderArena, total)
	if cap(res.Orders) < nb {
		res.Orders = make([][]int32, nb)
	}
	res.Orders = res.Orders[:nb]
	off := 0
	for i, b := range blocks {
		res.Orders[i] = res.orderArena[off : off+b.Len()]
		off += b.Len()
	}
	res.errs = res.errs[:0]
	if e.cfg.Verify {
		if cap(res.errs) < nb {
			res.errs = make([]error, nb)
		}
		res.errs = res.errs[:nb]
	}
	if cap(res.Rungs) < nb {
		res.Rungs = make([]Rung, nb)
	}
	res.Rungs = res.Rungs[:nb]

	start := time.Now()
	if nb > 0 {
		c.work(c.prefill(blocks), res, ctx.Done())
		clear(c.batch.items) // the crew outlives the run: drop its blocks
	}
	wall := time.Since(start)
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("engine: run cancelled: %w", err)
	}
	res.Stats = e.stats(c, wall, res.Stats.Bins[:0]) // recycle the bin slice

	for i, err := range res.errs {
		if err != nil {
			return res, fmt.Errorf("engine: block %d (%s): %w", i, blocks[i].Name, err)
		}
	}
	return res, nil
}

// put writes block it.seq's outcome into its result slot, copying the
// order out of worker or cache storage. Slots are disjoint per block,
// so no locking.
func (res *BatchResult) put(it streamItem, o outcome) {
	i := it.seq
	res.Cycles[i] = o.cycles
	res.Arcs[i] = o.arcs
	res.Rungs[i] = o.rung
	copy(res.Orders[i], o.order)
	if len(res.errs) > 0 {
		res.errs[i] = o.err
	}
}

// stats sums crew c's tallies into one run's Stats, reusing bins'
// storage for Stats.Bins.
func (e *Engine) stats(c *crew, wall time.Duration, bins []BinStats) Stats {
	st := Stats{Workers: len(c.workers), WallSeconds: wall.Seconds()}
	var hist [streamHistBuckets]int64
	for _, w := range c.workers {
		t := &w.tally
		st.Blocks += int(t.blocks)
		st.Insts += t.insts
		st.Arcs += t.arcs
		st.TotalCycles += t.cycles
		st.DegradedBlocks += t.degraded
		st.CacheHits += t.hits
		st.CacheMisses += t.misses
		st.DiskHits += t.diskHits
		st.PackedSelBlocks += t.packedBlocks
		st.Quarantines += t.quars
		st.Demotions += t.demoted
		st.GateFailures += t.gateFails
		st.FaultsInjected += t.faults
		for k := range hist {
			hist[k] += t.hist[k]
		}
	}
	if secs := wall.Seconds(); secs > 0 {
		st.InstsPerSec = float64(st.Insts) / secs
	}
	if total := st.CacheHits + st.DiskHits + st.CacheMisses; total > 0 {
		st.CacheHitRate = float64(st.CacheHits+st.DiskHits) / float64(total)
	}
	st.P50Micros = histPercentile(&hist, int64(st.Blocks), 50) / 1e3
	st.P99Micros = histPercentile(&hist, int64(st.Blocks), 99) / 1e3
	if st.Blocks > 0 {
		st.Bins = c.collectBins(bins)
	}
	return st
}

// cancelled is the per-claim cooperative cancellation check; done is
// nil when the run has no cancellable context.
func cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// outcome is one block's result as worker.run produced it. order
// aliases worker scratch or an immutable cache entry and is valid only
// until the worker's next block, so each entry point copies it out.
type outcome struct {
	cycles, arcs int32
	rung         Rung
	cached       bool // served from a cache tier, no pipeline run
	order        []int32
	err          error // Config.Verify only: the simulator cross-check
}

// run is the per-block function of both entry points. With the cache
// enabled, a fingerprint hit in either tier that passes the output
// gate serves the memoized schedule and skips the entire pipeline;
// everything else descends the degradation ladder, which always
// produces a gated schedule, and a healthy primary result is memoized.
// Under Config.Verify every schedule, served or computed, is
// re-timed on the simulator. The worker's tallies record the block.
//
//sched:recover-boundary
func (w *worker) run(b *block.Block) outcome {
	e := w.e
	t0 := time.Now()
	if e.cfg.BlockTimeout > 0 {
		w.deadline = t0.Add(e.cfg.BlockTimeout)
	} else {
		w.deadline = time.Time{}
	}
	var h uint64
	if e.cache != nil || w.inj != nil {
		w.enc = appendBlockKey(w.enc[:0], b.Insts)
		h = fnv1a64(w.enc)
	}
	o, ok := w.lookup(b, h)
	if !ok {
		rung, r, d := w.ladder(b, h)
		o = outcome{cycles: r.Cycles, rung: rung, order: r.Order}
		if d != nil { // the identity rung builds no DAG
			o.arcs = int32(d.NumArcs)
		}
		if e.cache != nil && rung == RungPrimary {
			// Only healthy primary results are memoized: a degraded
			// rung's schedule (identity in particular) must never
			// masquerade as the canonical one for later occurrences of
			// the same block.
			ent := &cacheEntry{
				key:    append([]byte(nil), w.enc...),
				order:  append([]int32(nil), r.Order...),
				issue:  append([]int32(nil), r.Issue...),
				cycles: r.Cycles,
				arcs:   o.arcs,
			}
			e.cache.insert(h, ent)
			if e.disk != nil {
				e.disk.enqueue(h, ent)
			}
		}
		if e.cfg.Verify {
			o.err = verify(b, r, e.cfg.Model, w.rt)
		}
	}
	n := b.Len()
	dur := int64(time.Since(t0))
	w.blocks++
	w.insts += int64(n)
	w.arcs += int64(o.arcs)
	w.cycles += int64(o.cycles)
	if o.rung != RungPrimary {
		w.degraded++
	}
	w.hist[histIndex(dur)]++
	w.binAdd(n, dur, o.cached)
	return o
}

// lookup serves block b from the schedule cache: the L1 first, then —
// on an L1 miss, or a poisoned L1 entry the gate rejected — the
// persistent tier, promoting a disk hit into L1 so later occurrences
// hit the fast tier. It reports false, counting a miss, when the block
// must run the pipeline.
func (w *worker) lookup(b *block.Block, h uint64) (outcome, bool) {
	e := w.e
	if e.cache == nil {
		return outcome{}, false
	}
	if ent := e.cache.lookup(h, w.enc); ent != nil {
		if o, ok := w.serve(b, h, ent.order, ent.issue, ent.cycles, ent.arcs); ok {
			w.hits++
			return o, true
		}
	}
	if e.disk != nil && w.probeDisk(h) {
		if o, ok := w.serve(b, h, w.l2.Order, w.l2.Issue, w.l2.Cycles, w.l2.Arcs); ok {
			w.diskHits++
			// Copied out of the decode scratch, which the next block
			// recycles.
			e.cache.insert(h, &cacheEntry{
				key:    append([]byte(nil), w.enc...),
				order:  append([]int32(nil), w.l2.Order...),
				issue:  append([]int32(nil), w.l2.Issue...),
				cycles: w.l2.Cycles,
				arcs:   w.l2.Arcs,
			})
			return o, true
		}
	}
	// Missed both tiers — or a served entry failed the gate, which
	// already dropped it from both; either way the pipeline runs.
	w.misses++
	return outcome{}, false
}

// serve admits one cached schedule for block b: the cache-bitflip
// injection point, then the structural half of the output gate (the
// only half that can run without a DAG). A rejected entry is removed
// from both tiers, so neither this process nor any later one serves it
// again, and serve reports false. Under Config.Verify the entry gets
// the same simulator witness as a computed schedule.
func (w *worker) serve(b *block.Block, h uint64, order, issue []int32, cycles, arcs int32) (outcome, bool) {
	e := w.e
	served := order
	if w.inj.Should(fault.CacheBitflip, h) {
		// Poison a scratch copy: cached storage is shared (an L1 entry
		// may be mid-read by another worker) or recycled (the L2 decode
		// scratch must not look like a real disk corruption to a later
		// re-probe).
		w.flip = buf.Int32(w.flip, len(order))
		copy(w.flip, order)
		w.inj.FlipBit(w.flip, h)
		w.faults++
		served = w.flip
	}
	if !w.structuralGate(served, issue, b.Len()) {
		w.gateFails++
		e.cache.remove(h, w.enc)
		if e.disk != nil {
			e.disk.remove(h, w.enc)
		}
		return outcome{}, false
	}
	o := outcome{cycles: cycles, arcs: arcs, cached: true, order: served}
	if e.cfg.Verify {
		// The simulator needs the worker's table prepared for b.
		w.rt.PrepareBlock(b.Insts)
		w.hitRes = sched.Result{Order: order, Issue: issue, Cycles: cycles}
		o.err = verify(b, &w.hitRes, e.cfg.Model, w.rt)
	}
	return o, true
}

// verify re-times the schedule on the scoreboard simulator, which
// derives timing from raw def/use information rather than DAG arcs,
// and demands cycle-exact agreement. The worker's resource table is
// still prepared for b when this runs.
func verify(b *block.Block, r *sched.Result, m *machine.Model, rt *resource.Table) error {
	sim := pipe.Simulate(b.Insts, r.Order, m, rt)
	if sim.Cycles != r.Cycles {
		return fmt.Errorf("simulator completes in %d cycles, schedule claims %d", sim.Cycles, r.Cycles)
	}
	for pos, node := range r.Order {
		if sim.Issue[pos] != r.Issue[node] {
			return fmt.Errorf("position %d (node %d): simulator issues at %d, schedule at %d",
				pos, node, sim.Issue[pos], r.Issue[node])
		}
	}
	return nil
}
