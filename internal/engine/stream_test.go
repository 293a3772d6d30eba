package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/fault"
	"daginsched/internal/machine"
	"daginsched/internal/synth"
)

// streamOutcome is one sink delivery with its Order copied out of the
// recycled ring storage.
type streamOutcome struct {
	seq    int64
	cycles int32
	arcs   int32
	rung   Rung
	order  []int32
}

// collectStream drives RunStream over blocks (fed on an unbuffered
// channel, so ingestion genuinely interleaves with scheduling) and
// returns every outcome in delivery order.
func collectStream(t *testing.T, e *Engine, blocks []*block.Block) ([]streamOutcome, Stats, error) {
	t.Helper()
	src := make(chan *block.Block)
	go func() {
		defer close(src)
		for _, b := range blocks {
			src <- b
		}
	}()
	var got []streamOutcome
	sink := func(o BlockOutcome) {
		oc := streamOutcome{seq: o.Seq, cycles: o.Cycles, arcs: o.Arcs, rung: o.Rung}
		if o.Order != nil {
			oc.order = append([]int32(nil), o.Order...)
		}
		got = append(got, oc)
	}
	st, err := e.RunStream(context.Background(), src, sink)
	return got, st, err
}

// requireStreamMatchesBatch checks outcome i against batch block i:
// same schedule bytes, same cycles, same arc count, same rung, and
// dense in-order sequence numbers.
func requireStreamMatchesBatch(t *testing.T, got []streamOutcome, want *BatchResult) {
	t.Helper()
	if len(got) != len(want.Orders) {
		t.Fatalf("stream delivered %d outcomes, want %d", len(got), len(want.Orders))
	}
	for i, oc := range got {
		if oc.seq != int64(i) {
			t.Fatalf("outcome %d: seq %d — sink deliveries must be dense and in order", i, oc.seq)
		}
		if oc.cycles != want.Cycles[i] {
			t.Fatalf("block %d: cycles %d, want %d", i, oc.cycles, want.Cycles[i])
		}
		if oc.arcs != want.Arcs[i] {
			t.Fatalf("block %d: arcs %d, want %d", i, oc.arcs, want.Arcs[i])
		}
		if oc.rung != want.Rungs[i] {
			t.Fatalf("block %d: rung %v, want %v", i, oc.rung, want.Rungs[i])
		}
		if len(oc.order) != len(want.Orders[i]) {
			t.Fatalf("block %d: order length %d, want %d", i, len(oc.order), len(want.Orders[i]))
		}
		for k := range oc.order {
			if oc.order[k] != want.Orders[i][k] {
				t.Fatalf("block %d position %d: node %d, want %d", i, k, oc.order[k], want.Orders[i][k])
			}
		}
	}
}

// TestRunStreamMatchesRun requires streamed schedules to be
// byte-identical to batch Run over the same corpus at every worker
// count, through a deliberately tiny reorder window so backpressure and
// the reorder ring actually engage. A depth of 1 makes the window
// smaller than a chunk, which would deadlock a claimer that waited for
// room while holding sequence numbers it has not run.
func TestRunStreamMatchesRun(t *testing.T) {
	m := machine.Super2()
	blocks := testBlocks(t, 200)
	base := Config{Model: m, KeepOrders: true, Cache: true}

	ref, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}

	for _, depth := range []int{16, 1} {
		for _, workers := range []int{1, 4, 8} {
			cfg := base
			cfg.Workers = workers
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.streamDepth = depth
			// Two passes through the same engine: the second runs with warm
			// arenas and a populated cache, like a long stream's steady
			// state.
			for pass := 0; pass < 2; pass++ {
				got, st, err := collectStream(t, e, blocks)
				if err != nil {
					t.Fatalf("depth=%d workers=%d pass=%d: %v", depth, workers, pass, err)
				}
				requireStreamMatchesBatch(t, got, want)
				if st.Blocks != len(blocks) {
					t.Fatalf("depth=%d workers=%d: stats counted %d blocks, want %d", depth, workers, st.Blocks, len(blocks))
				}
				if st.Insts != want.Stats.Insts {
					t.Fatalf("depth=%d workers=%d: stats counted %d insts, want %d", depth, workers, st.Insts, want.Stats.Insts)
				}
				if pass == 1 && st.CacheHits == 0 {
					t.Fatalf("depth=%d workers=%d: second pass over one corpus saw no cache hits", depth, workers)
				}
			}
		}
	}
}

// TestRunStreamWarmBytesConstant requires a warm 32-block RunStream on
// a reused engine to allocate the same bytes per call whatever the
// reorder window: the ring is recycled with the crew, so only O(1)
// per-call bookkeeping is left.
func TestRunStreamWarmBytesConstant(t *testing.T) {
	blocks := testBlocks(t, 32)
	perCall := func(depth int) uint64 {
		e, err := New(Config{Workers: 2, Model: machine.Super2(), Cache: true})
		if err != nil {
			t.Fatal(err)
		}
		e.streamDepth = depth
		run := func() {
			src := make(chan *block.Block, len(blocks))
			for _, b := range blocks {
				src <- b
			}
			close(src)
			if _, err := e.RunStream(context.Background(), src, nil); err != nil {
				t.Fatal(err)
			}
		}
		for range 8 { // grow every crew's ring and worker's scratch
			run()
		}
		const calls = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	small, large := perCall(16), perCall(4096)
	t.Logf("bytes per warm call: %d at depth 16, %d at depth 4096", small, large)
	if large > small+1024 {
		t.Fatalf("a warm call allocates %d bytes at depth 4096 but %d at depth 16: the reorder ring is not recycled", large, small)
	}
}

// sliceSource is a BlockSource over blocks, copying each into the
// engine's storage; past failAt blocks (when failAt > 0) it fails.
type sliceSource struct {
	blocks []*block.Block
	next   int
	failAt int
}

var errSource = errors.New("source failed")

func (s *sliceSource) Next(b *block.Block) (bool, error) {
	if s.failAt > 0 && s.next == s.failAt {
		return false, errSource
	}
	if s.next == len(s.blocks) {
		return false, nil
	}
	src := s.blocks[s.next]
	s.next++
	b.Name, b.Start = src.Name, src.Start
	b.Insts = append(b.Insts[:0], src.Insts...)
	return true, nil
}

// TestRunSourceMatchesRun requires RunSource's schedules to be
// byte-identical to Run's, through the same tiny windows as
// TestRunStreamMatchesRun, with every outcome carrying the block it
// scheduled and the run's last outcome closing a burst.
func TestRunSourceMatchesRun(t *testing.T) {
	blocks := testBlocks(t, 200)
	base := Config{Model: machine.Super2(), KeepOrders: true, Cache: true}
	ref, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{16, 1} {
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Workers = workers
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.streamDepth = depth
			for pass := 0; pass < 2; pass++ {
				var got []streamOutcome
				lastEnds := false
				sink := func(o BlockOutcome) {
					if b := blocks[o.Seq]; o.Block.Len() != b.Len() || (b.Len() > 0 && o.Block.Insts[0] != b.Insts[0]) {
						t.Errorf("outcome %d carries the wrong block", o.Seq)
					}
					got = append(got, streamOutcome{seq: o.Seq, cycles: o.Cycles, arcs: o.Arcs, rung: o.Rung, order: append([]int32(nil), o.Order...)})
					lastEnds = o.BurstEnd
				}
				st, err := e.RunSource(context.Background(), &sliceSource{blocks: blocks}, sink)
				if err != nil {
					t.Fatalf("depth=%d workers=%d pass=%d: %v", depth, workers, pass, err)
				}
				requireStreamMatchesBatch(t, got, want)
				if !lastEnds {
					t.Fatalf("depth=%d workers=%d: the last outcome does not end a burst", depth, workers)
				}
				if st.Blocks != len(blocks) || st.Insts != want.Stats.Insts || st.TotalCycles != want.Stats.TotalCycles {
					t.Fatalf("depth=%d workers=%d: stats %d blocks / %d insts / %d cycles, want %d / %d / %d",
						depth, workers, st.Blocks, st.Insts, st.TotalCycles, len(blocks), want.Stats.Insts, want.Stats.TotalCycles)
				}
			}
		}
	}
}

// TestRunSourceError: a failing source ends the stream like its end —
// the blocks pulled before the failure are scheduled and sinked as a
// dense prefix — and RunSource returns the source's error.
func TestRunSourceError(t *testing.T) {
	e, err := New(Config{Workers: 2, Model: machine.Super2()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunSource(context.Background(), nil, nil); err == nil {
		t.Fatal("nil source accepted")
	}
	var seqs []int64
	st, err := e.RunSource(context.Background(), &sliceSource{blocks: testBlocks(t, 20), failAt: 7}, func(o BlockOutcome) { seqs = append(seqs, o.Seq) })
	if !errors.Is(err, errSource) {
		t.Fatalf("error %v, want the source's", err)
	}
	if len(seqs) != 7 || st.Blocks != 7 {
		t.Fatalf("sink saw %d outcomes, stats %d blocks; want the 7 pulled before the failure", len(seqs), st.Blocks)
	}
	for i, s := range seqs {
		if s != int64(i) {
			t.Fatalf("outcome %d has seq %d", i, s)
		}
	}
}

// TestRunSourceWarmNoBlockAlloc: a warm RunSource scans into storage
// the crew recycles, so a 32-block run allocates no more than a 1-block
// run — only the per-call bookkeeping, none of it block storage.
func TestRunSourceWarmNoBlockAlloc(t *testing.T) {
	blocks := testBlocks(t, 32)
	e, err := New(Config{Workers: 2, Model: machine.Super2(), Cache: true, KeepOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		src := &sliceSource{blocks: blocks[:n]}
		run := func() {
			src.next = 0
			if _, err := e.RunSource(context.Background(), src, nil); err != nil {
				t.Fatal(err)
			}
		}
		for range 8 { // grow every crew's ring, block storage and scratch
			run()
		}
		return testing.AllocsPerRun(50, run)
	}
	one, many := allocs(1), allocs(len(blocks))
	t.Logf("allocations per warm RunSource: %v for 1 block, %v for %d", one, many, len(blocks))
	if many > one {
		t.Fatalf("a warm %d-block RunSource allocates %v times, a 1-block one %v: block storage is not recycled", len(blocks), many, one)
	}
}

// TestRunStreamFaultedMatchesRun streams under an aggressive fault
// plan and requires the outcomes — including which ladder rung served
// each block — to match a batch run under the same plan. Faults are
// content-keyed, so arrival order and worker interleaving must not
// change which blocks get hit or how they recover.
func TestRunStreamFaultedMatchesRun(t *testing.T) {
	m := machine.Super2()
	blocks := testBlocks(t, 120)
	cfg := Config{
		Model: m, KeepOrders: true, Cache: true, Verify: true,
		FaultPlan: &fault.Plan{Seed: 42, PanicBuilder: 0.1, CorruptArc: 0.1, CacheBitflip: 0.3},
	}

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for _, r := range want.Rungs {
		if r != RungPrimary {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("fault plan injected nothing; the test is vacuous")
	}

	scfg := cfg
	scfg.Workers = 4
	e, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	e.streamDepth = 16
	got, st, err := collectStream(t, e, blocks)
	if err != nil {
		t.Fatal(err)
	}
	requireStreamMatchesBatch(t, got, want)
	if st.DegradedBlocks != int64(degraded) {
		t.Fatalf("stream degraded %d blocks, batch degraded %d", st.DegradedBlocks, degraded)
	}

	// The same plan over both cache tiers, on files a fault-free engine
	// populated: both entry points run one per-block function, so every
	// counter must agree, not only the schedules. Each block is distinct,
	// so its cache history — and with it every counter — is independent
	// of claim order even at eight workers. Pass 0 serves from the disk
	// tier, pass 1 from L1; bitflips poison served entries in both.
	distinct := uniqueBlocks(blocks)
	var total Stats
	for _, workers := range []int{1, 8} {
		dcfg := cfg
		dcfg.Workers = workers
		runEng := newOnPopulatedCache(t, dcfg, distinct)
		streamEng := newOnPopulatedCache(t, dcfg, distinct)
		streamEng.streamDepth = 16
		for pass := 0; pass < 2; pass++ {
			res, err := runEng.Run(distinct)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := collectStream(t, streamEng, distinct)
			if err != nil {
				t.Fatal(err)
			}
			requireStreamMatchesBatch(t, got, res)
			requireSameCounters(t, fmt.Sprintf("workers=%d pass=%d", workers, pass), res.Stats, st)
			total.CacheHits += st.CacheHits
			total.DiskHits += st.DiskHits
			total.GateFailures += st.GateFailures
			total.Quarantines += st.Quarantines
			total.DegradedBlocks += st.DegradedBlocks
		}
		closeEngine(t, runEng)
		closeEngine(t, streamEng)
	}
	if total.CacheHits == 0 || total.DiskHits == 0 || total.GateFailures == 0 ||
		total.Quarantines == 0 || total.DegradedBlocks == 0 {
		t.Fatalf("a counter never fired, so the comparison is vacuous: %+v", total)
	}
}

// uniqueBlocks keeps the first occurrence of each block content.
func uniqueBlocks(blocks []*block.Block) []*block.Block {
	seen := make(map[uint64]bool)
	var out []*block.Block
	for _, b := range blocks {
		if k := BlockKey(b.Insts); !seen[k] {
			seen[k] = true
			out = append(out, b)
		}
	}
	return out
}

// newOnPopulatedCache opens an engine with cfg over a fresh cache file
// that a fault-free engine populated with blocks, so engines compared
// against each other start from the same persistent state without
// sharing it.
func newOnPopulatedCache(t *testing.T, cfg Config, blocks []*block.Block) *Engine {
	t.Helper()
	cfg.CachePath = diskPath(t)
	pop, err := New(Config{Model: cfg.Model, CachePath: cfg.CachePath})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pop.Run(blocks); err != nil {
		t.Fatal(err)
	}
	closeEngine(t, pop)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// requireSameCounters checks that a Run and a RunStream over the same
// corpus tallied the same cache, hardening, packed-selection and
// per-bin counters.
func requireSameCounters(t *testing.T, what string, run, stream Stats) {
	t.Helper()
	for _, c := range []struct {
		name string
		r, s int64
	}{
		{"CacheHits", run.CacheHits, stream.CacheHits},
		{"DiskHits", run.DiskHits, stream.DiskHits},
		{"CacheMisses", run.CacheMisses, stream.CacheMisses},
		{"GateFailures", run.GateFailures, stream.GateFailures},
		{"FaultsInjected", run.FaultsInjected, stream.FaultsInjected},
		{"Demotions", run.Demotions, stream.Demotions},
		{"Quarantines", run.Quarantines, stream.Quarantines},
		{"DegradedBlocks", run.DegradedBlocks, stream.DegradedBlocks},
		{"PackedSelBlocks", run.PackedSelBlocks, stream.PackedSelBlocks},
	} {
		if c.r != c.s {
			t.Errorf("%s: Run counted %s = %d, RunStream %d", what, c.name, c.r, c.s)
		}
	}
	if len(run.Bins) != len(stream.Bins) {
		t.Fatalf("%s: Run reported %d bins, RunStream %d", what, len(run.Bins), len(stream.Bins))
	}
	for i, r := range run.Bins {
		s := stream.Bins[i]
		if r.Blocks != s.Blocks || r.CachedBlocks != s.CachedBlocks {
			t.Errorf("%s bin %s: Run %d blocks (cached %d), RunStream %d (cached %d)",
				what, r.Label, r.Blocks, r.CachedBlocks, s.Blocks, s.CachedBlocks)
		}
	}
}

// TestRunStreamCancellation cancels mid-stream and requires: RunStream
// returns promptly with the context error, the sink saw a dense
// in-order prefix, and an unbounded producer does not wedge the
// pipeline.
func TestRunStreamCancellation(t *testing.T) {
	m := machine.Super2()
	blocks := testBlocks(t, 10)
	e, err := New(Config{Workers: 4, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	e.streamDepth = 8

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := make(chan *block.Block)
	go func() {
		defer close(src)
		for i := 0; ; i++ {
			select {
			case src <- blocks[i%len(blocks)]:
			case <-ctx.Done():
				return
			}
		}
	}()

	var seqs []int64
	sink := func(o BlockOutcome) {
		seqs = append(seqs, o.Seq)
		if len(seqs) == 100 {
			cancel()
		}
	}
	done := make(chan struct{})
	var st Stats
	var runErr error
	go func() {
		defer close(done)
		st, runErr = e.RunStream(ctx, src, sink)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunStream did not return after cancellation")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", runErr)
	}
	if len(seqs) < 100 {
		t.Fatalf("sink saw %d outcomes before cancellation propagated, want >= 100", len(seqs))
	}
	for i, s := range seqs {
		if s != int64(i) {
			t.Fatalf("outcome %d has seq %d: cancelled stream must still emit a dense prefix", i, s)
		}
	}
	if st.Blocks < len(seqs) {
		t.Fatalf("stats counted %d blocks, sink saw %d", st.Blocks, len(seqs))
	}
}

// TestRunStreamBoundedMemory streams >1M instructions of fresh content
// through a tiny reorder window and requires the live heap to stay
// flat: the measurement compares the post-GC heap after a short priming
// stream against the post-GC heap after a stream four times longer on
// the same engine. Growth proportional to stream length would fail;
// window- and arena-proportional state does not.
func TestRunStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 1.5M instructions")
	}
	m := machine.Super2()
	e, err := New(Config{Workers: 2, Model: m, Cache: false})
	if err != nil {
		t.Fatal(err)
	}
	e.streamDepth = 8
	profiles := synth.Profiles()
	runStream := func(minInsts int64) {
		src := make(chan *block.Block, 8)
		free := make(chan *block.Block, 64)
		go synth.StreamCorpus(context.Background(), profiles, minInsts, src, free)
		sink := func(o BlockOutcome) {
			select {
			case free <- o.Block:
			default:
			}
		}
		if _, err := e.RunStream(context.Background(), src, sink); err != nil {
			t.Fatal(err)
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	runStream(300_000)
	before := liveHeap()
	runStream(1_200_000)
	after := liveHeap()

	const limit = 16 << 20
	if grew := after - before; grew > limit {
		t.Fatalf("live heap grew %d bytes across a 4x longer stream (limit %d): streaming state is not bounded", grew, limit)
	}
}

// TestRunStreamEdgeCases covers the empty stream, nil source rejection
// and nil-block tolerance.
func TestRunStreamEdgeCases(t *testing.T) {
	m := machine.Super2()
	e, err := New(Config{Workers: 2, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	e.streamDepth = 4

	if _, err := e.RunStream(context.Background(), nil, nil); err == nil {
		t.Fatal("nil source accepted")
	}

	src := make(chan *block.Block)
	close(src)
	st, err := e.RunStream(context.Background(), src, nil)
	if err != nil {
		t.Fatalf("empty stream: %v", err)
	}
	if st.Blocks != 0 || st.Insts != 0 {
		t.Fatalf("empty stream counted %d blocks / %d insts", st.Blocks, st.Insts)
	}

	blocks := testBlocks(t, 3)
	src = make(chan *block.Block, 4)
	src <- nil
	src <- blocks[0]
	src <- nil
	close(src)
	n := 0
	st, err = e.RunStream(context.Background(), src, func(BlockOutcome) { n++ })
	if err != nil {
		t.Fatalf("nil-block stream: %v", err)
	}
	if n != 1 || st.Blocks != 1 {
		t.Fatalf("nil blocks not skipped: %d outcomes, %d counted", n, st.Blocks)
	}
}

// TestStreamHistogram pins the latency histogram's bucketing: exact
// below 16ns, ~12% relative resolution above, monotone representative
// values, and the batch percentile rank convention.
func TestStreamHistogram(t *testing.T) {
	for n := int64(0); n < 16; n++ {
		if got := histIndex(n); got != int(n) {
			t.Fatalf("histIndex(%d) = %d, want exact bucket", n, got)
		}
	}
	if histIndex(-5) != 0 {
		t.Fatal("negative duration must land in bucket 0")
	}
	prev := -1.0
	for i := 0; i < streamHistBuckets; i++ {
		rep := histRepNanos(i)
		if rep <= prev {
			t.Fatalf("bucket %d representative %v not monotone after %v", i, rep, prev)
		}
		prev = rep
		// The top few buckets represent durations beyond int64 range and
		// can never be produced by histIndex; round-trip the rest.
		if rep < float64(1<<62) {
			if idx := histIndex(int64(rep)); idx != i {
				t.Fatalf("bucket %d representative %v maps back to bucket %d", i, rep, idx)
			}
		}
	}
	// Relative error: for durations across the range, the representative
	// of the bucket a duration lands in stays within ~13% of it.
	for _, d := range []int64{17, 100, 999, 12345, 1e6, 5e7, 1e9} {
		rep := histRepNanos(histIndex(d))
		if rel := (rep - float64(d)) / float64(d); rel > 0.13 || rel < -0.13 {
			t.Fatalf("duration %d: representative %v off by %.1f%%", d, rep, rel*100)
		}
	}
	var h [streamHistBuckets]int64
	h[histIndex(10)] = 90
	h[histIndex(1000)] = 10
	if p := histPercentile(&h, 100, 50); p != 10 {
		t.Fatalf("p50 = %v, want 10", p)
	}
	if p := histPercentile(&h, 100, 99); p < 500 {
		t.Fatalf("p99 = %v, want the ~1000ns bucket's representative", p)
	}
	if p := histPercentile(&h, 0, 99); p != 0 {
		t.Fatalf("empty histogram percentile = %v, want 0", p)
	}
}
