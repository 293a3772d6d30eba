// The streaming constant-memory pipeline and the claim loop both entry
// points share. Run materializes a whole corpus before scheduling, so
// peak memory grows linearly with corpus size and ingestion is fully
// serialized with scheduling. RunSource (and RunStream, its channel-fed
// adapter) overlaps the three phases — ingestion, scheduling, emission
// — so a 100M-instruction run needs memory proportional to the reorder
// window, never to the corpus:
//
//	src ─► claiming worker ─► reorder ring ─► emitter ─► sink
//
//	  - Workers claim straight from a work source (workSource). Run's is
//	    its slice in LPT order, claimed through atomic cursors (see
//	    prefill). A stream's is src itself: a worker takes the claim
//	    lock, pulls blocks (RunSource scans each into its ring slot's
//	    block storage; RunStream receives the producer's pointer),
//	    numbers them densely, and stops at chunkSize small blocks, at a
//	    block above smallCutoff, or at the end of src. Then it drops the
//	    lock and runs the chunk. Nothing sits between src and the
//	    workers, so a slow consumer backpressures the producer.
//	  - Workers run the one claim loop (claim) and the one per-block
//	    function (worker.run) of both entry points: the same cache
//	    lookup, the same table pipeline, the same degradation
//	    ladder and output gate. A block's schedule is a pure function of
//	    its instruction bytes once the engine is configured, so streamed
//	    schedules are byte-identical to batch schedules regardless of
//	    arrival order or interleaving.
//	  - Finished blocks are deposited into a reorder ring; a dedicated
//	    emitter drains it in sequence order and invokes the sink
//	    serially, marking the last outcome of each ready burst. A
//	    claimer admits a sequence number only once its slot's previous
//	    occupant has been sinked and freed (reserve), so deposits never
//	    wait at all. The claim lock, the ring and the emitter are all the
//	    stream adds to Run's path.
//
// Per-block latency percentiles, batch and streaming alike, come from a
// fixed log-scale histogram (4 sub-buckets per octave, ~12% resolution)
// rather than a recorded duration per block, which would grow with the
// corpus.
package engine

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/buf"
)

// streamDepth is RunStream's reorder slack, in blocks: how far past
// the oldest unemitted block the claimers may run ahead. A full window
// backpressures the producer instead of buffering, which is what makes
// streamed memory independent of stream length.
const streamDepth = 256

// slotKeepInsts caps the block storage a ring slot keeps from one run
// to the next. 256 instructions (22 KiB) cover serve-sized blocks and
// nearly every Table 3 block, and bound a crew's ring near 6 MiB;
// keeping whatever passed through would let a stream of giants pin one
// in every slot.
const slotKeepInsts = 256

// BlockOutcome is one streamed block's result, delivered to the
// stream's sink in sequence order. Seq numbers blocks in arrival order
// starting at 0. Order (present only under Config.KeepOrders) aliases a
// recycled ring buffer and is valid only for the duration of the sink
// call — a sink that retains it must copy. Block is the block itself:
// under RunStream the producer's pointer, handed back so a
// freelist-driven producer can recycle its storage once the sink call
// returns; under RunSource the engine's own storage, likewise valid
// only during the call.
type BlockOutcome struct {
	Seq    int64
	Block  *block.Block
	Cycles int32
	Arcs   int32
	Rung   Rung
	Order  []int32
	// Err is this block's simulator cross-check failure (Config.Verify
	// only); the stream keeps running and returns the first such error
	// after the drain.
	Err error
	// BurstEnd marks the last outcome of a burst: when the emitter
	// delivered it, no later outcome was ready yet. A sink that buffers
	// its output can write it out here, once per burst, and never hold
	// back an outcome the stream has finished.
	BurstEnd bool
}

// BlockSource is RunSource's pull source. Next fills b with the next
// block, recycling b's storage, and reports whether there was one: false
// with a nil error at the end of the source, false with the error when
// it fails. *asm.BlockScanner is one.
type BlockSource interface {
	Next(b *block.Block) (bool, error)
}

// streamItem is one claimable block: its sequence number (RunStream's
// arrival number, or Run's slice index) and the block.
type streamItem struct {
	seq int64
	b   *block.Block
}

// workSource hands the claim loop its work. next returns the claiming
// worker's next run of items — possibly appended to chunk, the
// worker's empty buffer of capacity chunkSize — or none once the source
// is exhausted or done has closed.
type workSource interface {
	next(chunk []streamItem, done <-chan struct{}) []streamItem
}

// outcomeSink consumes claimed blocks' outcomes: a *BatchResult writes
// result slots, a *streamRun its reorder ring.
type outcomeSink interface {
	put(it streamItem, o outcome)
}

// work runs the claim loop of every crew worker over src, delivering
// outcomes to out, and returns once all of them have stopped. The
// calling goroutine serves as the lead worker, so a one-worker crew
// starts no goroutine at all.
func (c *crew) work(src workSource, out outcomeSink, done <-chan struct{}) {
	for _, w := range c.workers[1:] {
		c.wg.Add(1)
		go func(w *worker) {
			defer c.wg.Done()
			w.claim(src, out, done)
		}(w)
	}
	c.workers[0].claim(src, out, done)
	c.wg.Wait()
	for _, w := range c.workers {
		clear(w.chunk[:]) // the worker outlives the run: drop its blocks
	}
}

// claim is the claim loop: it takes runs of items from src and runs
// each block through the per-block function, handing the outcome to
// out, until src is exhausted or the context is cancelled. A claimed
// block is always finished — cancellation is observed at claim
// boundaries (and between a run's blocks), never mid-block.
func (w *worker) claim(src workSource, out outcomeSink, done <-chan struct{}) {
	for !cancelled(done) {
		items := src.next(w.chunk[:0], done)
		if len(items) == 0 {
			return
		}
		for i, it := range items {
			if i > 0 && cancelled(done) {
				return
			}
			out.put(it, w.run(it.b))
		}
	}
}

// streamSlot is one reorder-ring entry: ready once its outcome is
// deposited, until the emitter has sinked it. The order slice is the
// recycled backing for BlockOutcome.Order, grown once per slot to the
// stream's largest block and reused thereafter; blk is the storage
// RunSource scans the slot's block into, recycled the same way.
type streamSlot struct {
	ready bool
	out   BlockOutcome
	order []int32
	blk   block.Block
}

// Latency histogram: 16 exact buckets for durations under 16ns, then 4
// sub-buckets per power of two — ~12% worst-case relative error on the
// reported percentiles, constant memory at any stream length.
const streamHistBuckets = 16 + 4*60

// histIndex maps a duration to its histogram bucket.
//
//sched:noalloc
func histIndex(nanos int64) int {
	if nanos < 0 {
		return 0
	}
	if nanos < 16 {
		return int(nanos)
	}
	u := uint64(nanos)
	o := bits.Len64(u)             // >= 5
	sub := int((u >> (o - 3)) & 3) // the two bits below the leading one
	idx := 16 + (o-5)*4 + sub
	if idx >= streamHistBuckets {
		return streamHistBuckets - 1
	}
	return idx
}

// histRepNanos is bucket i's representative duration (its midpoint).
func histRepNanos(i int) float64 {
	if i < 16 {
		return float64(i)
	}
	o := (i-16)/4 + 5
	sub := (i - 16) % 4
	lo := float64(uint64(4+sub) << (o - 3))
	return lo + float64(uint64(1)<<(o-3))/2
}

// histPercentile returns the pct-th percentile duration in nanos of
// the merged histogram: the bucket holding the sample of rank
// (total-1)*pct/100 in ascending order.
func histPercentile(h *[streamHistBuckets]int64, total, pct int64) float64 {
	if total == 0 {
		return 0
	}
	rank := (total - 1) * pct / 100
	cum := int64(0)
	for i := range h {
		cum += h[i]
		if cum > rank {
			return histRepNanos(i)
		}
	}
	return histRepNanos(streamHistBuckets - 1)
}

// streamRun is one stream's shared state: the work source the
// claimers share and the reorder ring they deposit into. Exactly one
// of src (RunSource) and ch (RunStream) is set.
type streamRun struct {
	src        BlockSource
	ch         <-chan *block.Block
	sink       func(BlockOutcome)
	keepOrders bool
	window     int64
	slots      []streamSlot // the crew's recycled ring

	// claimMu is the claim lock: one claimer at a time pulls from the
	// source and numbers what it pulls. It is held across the pull on
	// purpose — that is what makes sequence numbers follow arrival
	// order. RunStream's receive also selects on done, so a cancelled
	// run still lets go of it; a BlockSource that can block must watch
	// the run's context itself. A claimer calls reserve while holding
	// it, so it ranks before mu.
	claimMu sync.Mutex //sched:lock-rank 5
	// seq is the next sequence number to assign; baseFloor is a stale
	// (never ahead) copy of base, so claims far from the window's edge
	// never touch mu; srcClosed records the end of the source, and
	// srcErr the error that ended it.
	seq       int64 //sched:guarded-by claimMu
	baseFloor int64 //sched:guarded-by claimMu
	srcClosed bool  //sched:guarded-by claimMu
	srcErr    error //sched:guarded-by claimMu

	mu   sync.Mutex //sched:lock-rank 10
	cond *sync.Cond
	// base is the next sequence number the emitter will deliver; every
	// seq below it has been sinked and its slot freed (or abandoned to
	// cancellation). Slot states, the fields below and the ring all
	// share this lock.
	//
	//sched:signals cond
	base int64 //sched:guarded-by mu
	// finished is the stream-wide stop predicate: waiters re-check it on
	// every wakeup.
	//
	//sched:signals cond
	finished    bool  //sched:guarded-by mu
	pendingPeak int64 //sched:guarded-by mu
	firstErr    error //sched:guarded-by mu
	errSeq      int64 //sched:guarded-by mu
	// ringWaiters counts claimers waiting in reserve for the in-flight
	// span to shrink. The emitter only broadcasts after freeing slots
	// when one is actually waiting.
	//
	//sched:signals cond
	ringWaiters int //sched:guarded-by mu

	emitted sync.WaitGroup // joins the emitter
}

// next is the stream's work source: under the claim lock it pulls from
// the source — scanning into the next sequence number's slot storage,
// or receiving from ch and skipping nil blocks — and numbers what it
// pulls densely, until it holds chunkSize blocks, has taken one above
// smallCutoff, or reaches the end of the source. Two invariants keep
// the reorder ring deadlock-free:
//
//   - A claimer never waits in reserve while holding a sequence number
//     it has not run: the emitter may be waiting for exactly that
//     number, and the wait would be circular. A non-empty chunk that
//     reaches the window's edge ends there instead.
//   - A claimer waiting in reserve wakes on cancellation (wake). No
//     other goroutine would: the crew it belongs to is what RunStream
//     waits for before flagging the stream finished.
func (s *streamRun) next(chunk []streamItem, done <-chan struct{}) []streamItem {
	s.claimMu.Lock()
	defer s.claimMu.Unlock()
	for !s.srcClosed && len(chunk) < chunkSize {
		if s.seq-s.baseFloor >= s.window {
			s.baseFloor = s.reserve(s.seq, len(chunk) == 0, done)
			if s.seq-s.baseFloor >= s.window {
				break // at the edge with a chunk to run, or cancelled
			}
		}
		var b *block.Block
		var ok bool
		if s.src != nil {
			// reserve freed this slot: its last occupant was sinked.
			b = &s.slots[s.seq%s.window].blk
			ok, s.srcErr = s.src.Next(b)
			if cancelled(done) {
				return nil // as a cancelled receive: the chunk is abandoned
			}
		} else {
			select {
			case <-done:
				return nil
			case b, ok = <-s.ch:
			}
		}
		if !ok {
			s.srcClosed = true
			break
		}
		if b == nil {
			continue
		}
		chunk = append(chunk, streamItem{seq: s.seq, b: b})
		s.seq++
		if b.Len() > smallCutoff {
			break
		}
	}
	return chunk
}

// reserve returns the emitter's base, first waiting — when wait is set
// — until seq fits the reorder window (seq-base < window) or done
// closes. That admission rule is the invariant the whole ring rests
// on: base only passes a slot once its sink call has returned, so every
// assigned-but-unemitted sequence number has a free slot of its own,
// and neither a depositor nor RunSource's scan into the slot's block
// ever waits.
func (s *streamRun) reserve(seq int64, wait bool, done <-chan struct{}) int64 {
	s.mu.Lock()
	for wait && seq-s.base >= s.window && !cancelled(done) {
		s.ringWaiters++
		s.cond.Wait()
		s.ringWaiters--
	}
	base := s.base
	s.mu.Unlock()
	return base
}

// wake rouses every ring waiter to re-check its predicate; RunStream
// runs it on cancellation, for a claimer waiting in reserve. A late
// call on a finished stream wakes nobody.
func (s *streamRun) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// put deposits a claimed block's outcome into the reorder-ring slot of
// its sequence number. reserve guarantees the slot's previous occupant
// was already sinked and freed, so the depositor owns the slot until it
// flips it ready: the fill happens outside the lock, and the lock's
// release/acquire pair orders it against the emitter's read.
//
//sched:noalloc
func (s *streamRun) put(it streamItem, o outcome) {
	seq := it.seq
	slot := &s.slots[seq%s.window]
	if s.keepOrders && o.order != nil {
		slot.order = buf.Int32(slot.order, len(o.order))
		copy(slot.order, o.order)
		slot.out.Order = slot.order
	} else {
		slot.out.Order = nil
	}
	slot.out.Seq = seq
	slot.out.Block = it.b
	slot.out.Cycles = o.cycles
	slot.out.Arcs = o.arcs
	slot.out.Rung = o.rung
	slot.out.Err = o.err
	s.mu.Lock()
	slot.ready = true
	if o.err != nil && s.firstErr == nil {
		s.firstErr = o.err
		s.errSeq = seq
	}
	if p := seq + 1 - s.base; p > s.pendingPeak {
		s.pendingPeak = p
	}
	// The emitter only ever waits on the slot at base; an out-of-order
	// deposit cannot be what it is waiting for, so skip the wakeup.
	if seq == s.base {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// emitLoop drains the reorder ring in sequence order, invoking the
// sink serially outside the lock. Each wakeup takes the whole
// contiguous run of ready slots at base in one critical section, sinks
// them all — the last one marked BurstEnd — then frees them and
// advances base past them in a second: two lock acquisitions per burst
// instead of two per block, which is what keeps the emitter off the
// profile on small-block streams. It exits once finished is set and the
// slot at base is not ready — on a clean run that means every deposited
// outcome was emitted; on a cancelled run the first gap (a
// claimed-but-abandoned sequence number) ends emission, so the sink
// always sees a dense prefix of the stream.
//
//sched:noalloc
func (s *streamRun) emitLoop() {
	defer s.emitted.Done()
	for {
		s.mu.Lock()
		for !s.slots[s.base%s.window].ready && !s.finished {
			s.cond.Wait()
		}
		start := s.base
		var n int64
		for n = 0; n < s.window && s.slots[(start+n)%s.window].ready; n++ {
		}
		s.mu.Unlock()
		if n == 0 {
			return
		}
		for i := int64(0); i < n; i++ {
			o := s.slots[(start+i)%s.window].out
			o.BurstEnd = i == n-1
			s.sink(o)
		}
		s.mu.Lock()
		for i := int64(0); i < n; i++ {
			s.slots[(start+i)%s.window].ready = false
		}
		s.base = start + n
		// Base only moves here, after the burst's sink calls: a claimer
		// waiting in reserve for room is what this wakes.
		if s.ringWaiters > 0 {
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
}

// RunSource schedules the blocks it pulls from src, invoking sink once
// per block in sequence (arrival) order, and returns the run's Stats
// once src is exhausted and the pipeline drains. The claiming worker
// calls src.Next itself, under the claim lock, into block storage the
// engine recycles after that block's sink call, so a warm run allocates
// no block storage at all. The reorder window bounds how far workers
// run ahead of the sink, so memory is proportional to the window —
// never to the stream's length — and schedules are byte-identical to
// Run over the same corpus (including under a FaultPlan: the faulted
// set is content-keyed, not position-keyed).
//
// The sink runs on a dedicated goroutine, serially and in order; the
// outcome's Order and Block are valid only during the call. A nil sink
// discards outcomes. An error from src ends the stream like its end:
// the blocks pulled before it are scheduled and sinked, and RunSource
// returns the error. Cancellation mirrors RunCtx: a stream still
// waiting for a worker returns at once, workers stop claiming at the
// next block boundary, the sink sees a dense prefix of the stream, and
// ctx's error is returned with the partial Stats. A src.Next blocked
// in a read is not interrupted: a source that can stall must watch ctx
// itself.
//
//sched:cancellable
func (e *Engine) RunSource(ctx context.Context, src BlockSource, sink func(BlockOutcome)) (Stats, error) {
	if src == nil {
		return Stats{}, &ConfigError{Field: "src", Value: nil, Reason: "RunSource needs a block source"}
	}
	return e.stream(ctx, &streamRun{src: src}, sink)
}

// RunStream is RunSource fed from a channel: the claiming worker
// receives each block from src (skipping nil ones), the outcome hands
// the producer's own pointer back in BlockOutcome.Block, and the stream
// ends when src closes. A cancelled run stops waiting on src at once.
//
//sched:cancellable
func (e *Engine) RunStream(ctx context.Context, src <-chan *block.Block, sink func(BlockOutcome)) (Stats, error) {
	if src == nil {
		return Stats{}, &ConfigError{Field: "src", Value: nil, Reason: "RunStream needs a source channel"}
	}
	return e.stream(ctx, &streamRun{ch: src}, sink)
}

// stream runs s, whose source is set, on a crew: the body RunSource and
// RunStream share.
//
//sched:cancellable
func (e *Engine) stream(ctx context.Context, s *streamRun, sink func(BlockOutcome)) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if sink == nil {
		sink = func(BlockOutcome) {}
	}
	c, ok := e.checkout(ctx.Done())
	if !ok {
		return Stats{}, fmt.Errorf("engine: stream cancelled: %w", ctx.Err())
	}
	defer e.release(c)

	// Ring sizing: reserve caps the in-flight sequence span at the
	// window, so correctness needs only window >= 1. One slot per worker
	// lets every worker hold a block at once, and streamDepth more let
	// the crew run that far past a slow block before reserve holds it.
	window := e.streamDepth + len(c.workers)
	if cap(c.slots) < window {
		c.slots = make([]streamSlot, window)
	}
	s.sink, s.keepOrders = sink, e.cfg.KeepOrders
	s.window, s.slots = int64(window), c.slots[:window]
	s.cond = sync.NewCond(&s.mu)

	done := ctx.Done()
	if done != nil {
		stop := context.AfterFunc(ctx, s.wake)
		defer stop()
	}
	start := time.Now()
	s.emitted.Add(1)
	go s.emitLoop()
	c.work(s, s, done)
	s.mu.Lock()
	s.finished = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.emitted.Wait()
	wall := time.Since(start)

	st := e.stats(c, wall, nil)
	s.mu.Lock()
	st.PendingPeak = int(s.pendingPeak)
	firstErr, errSeq := s.firstErr, s.errSeq
	s.mu.Unlock()
	s.claimMu.Lock()
	// A failed or exhausted pull may have left storage in the slot of
	// the number it did not get.
	used, srcErr := min(s.seq+1, s.window), s.srcErr
	s.claimMu.Unlock()
	// The crew outlives the run: free every slot a cancelled run left
	// ready, drop the producer's blocks, and let go of outsized block
	// storage (slotKeepInsts).
	for i := range s.slots[:used] {
		sl := &s.slots[i]
		sl.ready, sl.out = false, BlockOutcome{}
		if cap(sl.blk.Insts) > slotKeepInsts {
			sl.blk.Insts = nil
		}
	}

	if err := ctx.Err(); err != nil {
		return st, fmt.Errorf("engine: stream cancelled: %w", err)
	}
	if srcErr != nil {
		return st, fmt.Errorf("engine: stream source: %w", srcErr)
	}
	if firstErr != nil {
		return st, fmt.Errorf("engine: stream block %d: %w", errSeq, firstErr)
	}
	return st, nil
}
