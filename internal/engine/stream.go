// The streaming constant-memory pipeline and the claim loop both entry
// points share. Run materializes a whole corpus before scheduling, so
// peak memory grows linearly with corpus size and ingestion is fully
// serialized with scheduling. RunStream overlaps the three phases —
// ingestion, scheduling, emission — so a 100M-instruction run needs
// memory proportional to the configured queue depth, never to the
// corpus:
//
//		src ─► dispatcher ─► bigQ (1 block/slot)  ─► workers ─► reorder ring ─► emitter ─► sink
//		                └──► smallQ (chunk/slot)  ─┘
//
//	  - The dispatcher assigns each block a dense sequence number and
//	    routes it online by size: blocks above smallCutoff go to bigQ one
//	    per slot, the small tail is batched into chunks of chunkSize.
//	    Run fills the same two queues up front instead (prefill), big
//	    blocks largest first; the stream keeps the LPT spirit online — a
//	    worker always prefers the big-block queue, and tiny blocks are
//	    claimed in chunks to amortize contention. Both stream queues are
//	    bounded, so a slow consumer backpressures the producer through
//	    src.
//	  - Workers run the one claim loop (claim) and the one per-block
//	    function (worker.run) of both entry points: the same cache
//	    lookup, the same adaptive n²/table dispatch, the same degradation
//	    ladder and output gate. A block's schedule is a pure function of
//	    its instruction bytes once the engine is configured, so streamed
//	    schedules are byte-identical to batch schedules regardless of
//	    arrival order or interleaving.
//	  - Finished blocks are deposited into a reorder ring sized to the
//	    maximum number of in-flight sequence numbers; a dedicated emitter
//	    drains it in sequence order and invokes the sink serially. The
//	    sizing makes deposits wait-free in the healthy case: every
//	    assigned-but-unemitted block occupies a queue slot, a worker, or
//	    a ring slot, and the ring has room for all of them. The
//	    dispatcher, the ring and the emitter are all the stream adds to
//	    Run's path.
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

// streamDepth bounds RunStream's ingest queues (in blocks): a full
// pipeline backpressures the producer instead of buffering, which is
// what makes streamed memory independent of stream length.
const streamDepth = 256

// BlockOutcome is one streamed block's result, delivered to the
// RunStream sink in sequence order. Seq numbers blocks in arrival
// order starting at 0. Order (present only under Config.KeepOrders)
// aliases a recycled ring buffer and is valid only for the duration of
// the sink call — a sink that retains it must copy. Block is the
// producer's pointer, handed back so a freelist-driven producer can
// recycle its storage once the sink call returns.
type BlockOutcome struct {
	Seq    int64
	Block  *block.Block
	Cycles int32
	Arcs   int32
	Rung   Rung
	Order  []int32
	// Err is this block's simulator cross-check failure (Config.Verify
	// only); the stream keeps running and RunStream returns the first
	// such error after the drain.
	Err error
}

// streamItem is one claimable block: its sequence number (RunStream's
// arrival number, or Run's slice index) and the block. The zero value
// ends a queue.
type streamItem struct {
	seq int64
	b   *block.Block
}

// claimQueues is the work source of the claim loop: big blocks one per
// slot, small blocks in chunks.
type claimQueues struct {
	bigQ   chan streamItem
	smallQ chan []streamItem
	// chunkPool recycles RunStream's chunk storage; nil for Run, whose
	// chunks slice items.
	chunkPool chan []streamItem
	// items backs Run's prefilled chunks.
	items []streamItem
}

// outcomeSink consumes claimed blocks' outcomes: a *BatchResult writes
// result slots, a *streamRun its reorder ring.
type outcomeSink interface {
	put(it streamItem, o outcome)
}

// work runs the claim loop of every crew worker over q, delivering
// outcomes to out, and returns once all of them have stopped. The
// calling goroutine serves as the lead worker, so a one-worker crew
// starts no goroutine at all.
func (c *crew) work(q *claimQueues, out outcomeSink, done <-chan struct{}) {
	for _, w := range c.workers[1:] {
		c.wg.Add(1)
		go func(w *worker) {
			defer c.wg.Done()
			w.claim(q, out, done)
		}(w)
	}
	c.workers[0].claim(q, out, done)
	c.wg.Wait()
}

// claim is the claim loop: it takes blocks off q and runs each through
// the per-block function, handing the outcome to out, until it has
// seen the end of both queues or the context is cancelled. The
// big-block queue is always preferred (the LPT spirit: a giant block
// starts as soon as any worker frees up), falling back to a fair
// select over both. A queue ends at its zero value: the receive of a
// closed channel, or one of Run's end markers. A claimed block is
// always finished — cancellation is observed at claim boundaries (and
// between a chunk's blocks), never mid-block.
func (w *worker) claim(q *claimQueues, out outcomeSink, done <-chan struct{}) {
	big, small := q.bigQ, q.smallQ
	for big != nil || small != nil {
		if cancelled(done) {
			return
		}
		// A finished queue is nil, which a select never picks.
		var it streamItem
		var chunk []streamItem
		fromSmall := false
		select {
		case it = <-big:
		default:
			select {
			case it = <-big:
			case chunk = <-small:
				fromSmall = true
			}
		}
		switch {
		case !fromSmall && it.b == nil:
			big = nil
		case !fromSmall:
			out.put(it, w.run(it.b))
		case chunk == nil:
			small = nil
		default:
			for i, it := range chunk {
				if i > 0 && cancelled(done) {
					return
				}
				out.put(it, w.run(it.b))
			}
			if q.chunkPool != nil {
				q.chunkPool <- chunk[:0]
			}
		}
	}
}

// Reorder-ring slot states: free (writable by the next depositor of
// the slot's sequence residue), ready (deposited, awaiting emission),
// sinking (the emitter is inside the sink call; the slot's storage may
// not be reused yet).
const (
	slotFree uint8 = iota
	slotReady
	slotSinking
)

// streamSlot is one reorder-ring entry. The order slice is the
// recycled backing for BlockOutcome.Order, grown once per slot to the
// stream's largest block and reused thereafter.
type streamSlot struct {
	state uint8
	out   BlockOutcome
	order []int32
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

// streamRun is one RunStream invocation's shared state.
type streamRun struct {
	sink       func(BlockOutcome)
	keepOrders bool
	window     int64
	slots      []streamSlot

	mu   sync.Mutex //sched:lock-rank 10
	cond *sync.Cond
	// base is the next sequence number the emitter will deliver; every
	// seq below it has been sinked (or abandoned to cancellation). Slot
	// states, the fields below and the ring all share this lock.
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
	// ringWaiters counts goroutines blocked on ring state other than a
	// ready base slot: the dispatcher waiting in reserve for the
	// in-flight span to shrink, or a depositor waiting out a slot the
	// emitter is still sinking. The emitter only broadcasts after
	// freeing slots when one is actually waiting.
	//
	//sched:signals cond
	ringWaiters int //sched:guarded-by mu

	claimQueues

	// Queue occupancy high-water marks, written by the dispatcher only.
	bigPeak, smallPeak int
}

// reserve admits one sequence number into the reorder window: the
// dispatcher calls it before routing seq, blocking while seq's slot
// could still collide with an unemitted predecessor (seq-window not
// yet delivered). This is the invariant the whole ring rests on —
// every assigned-but-unemitted sequence number has its own slot, so a
// depositor can at worst wait out a slot the emitter is actively
// sinking, never circularly on another worker. Without it, workers
// preferring the big-block queue can run sequence numbers arbitrarily
// far past a small chunk still parked in smallQ, and once deposits
// span the window every worker blocks with the parked chunk
// unclaimable. It returns the refreshed base so the dispatcher can
// skip the lock while far from the bound; a finished (cancelled)
// stream unblocks immediately.
func (s *streamRun) reserve(seq int64) int64 {
	s.mu.Lock()
	for seq-s.base >= s.window && !s.finished {
		s.ringWaiters++
		s.cond.Wait()
		s.ringWaiters--
	}
	base := s.base
	s.mu.Unlock()
	return base
}

// put deposits a claimed block's outcome into the reorder-ring slot of
// its sequence number. reserve guarantees the slot's previous occupant
// was already emitted, so the wait loop only ever rides out the
// emitter's sink call on that occupant (slotSinking); it cannot block
// on another worker. The slot
// fill happens outside the lock — the depositor owns the slot
// exclusively between the free check and the ready flip, and the
// lock's release/acquire pair orders the fill against the emitter's
// read.
//
//sched:noalloc
func (s *streamRun) put(it streamItem, o outcome) {
	seq := it.seq
	slot := &s.slots[seq%s.window]
	s.mu.Lock()
	for slot.state != slotFree {
		s.ringWaiters++
		s.cond.Wait()
		s.ringWaiters--
	}
	s.mu.Unlock()
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
	slot.state = slotReady
	if o.err != nil && s.firstErr == nil {
		s.firstErr = o.err
		s.errSeq = seq
	}
	if p := seq + 1 - s.base; p > s.pendingPeak {
		s.pendingPeak = p
	}
	// The emitter only ever waits on the slot at base; an out-of-order
	// deposit cannot be what it is waiting for, so skip the wakeup.
	if seq == s.base || s.ringWaiters > 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// emitLoop drains the reorder ring in sequence order, invoking the
// sink serially outside the lock. Each wakeup claims the whole
// contiguous run of ready slots at base in one critical section, sinks
// them all, then frees them in a second — two lock acquisitions per
// burst instead of two per block, which is what keeps the emitter off
// the profile on small-block streams. It exits once finished is set
// and the slot at base is not ready — on a clean run that means every
// deposited outcome was emitted; on a cancelled run the first gap (a
// claimed-but-abandoned sequence number) ends emission, so the sink
// always sees a dense prefix of the stream.
//
//sched:noalloc
func (s *streamRun) emitLoop(done chan struct{}) {
	defer close(done)
	for {
		s.mu.Lock()
		slot := &s.slots[s.base%s.window]
		for slot.state != slotReady && !s.finished {
			s.cond.Wait()
			slot = &s.slots[s.base%s.window]
		}
		if slot.state != slotReady {
			s.mu.Unlock()
			return
		}
		// Claim the whole ready run. Advancing base past slotSinking
		// slots is safe: depositors wait on slotFree, not on base.
		start := s.base
		n := int64(0)
		//sched:lint-ignore cancelpoll bounded by the ring: each iteration flips one ready slot to sinking, at most window slots
		for {
			sl := &s.slots[(start+n)%s.window]
			if sl.state != slotReady {
				break
			}
			sl.state = slotSinking
			n++
		}
		s.base = start + n
		s.mu.Unlock()
		for i := int64(0); i < n; i++ {
			s.sink(s.slots[(start+i)%s.window].out)
		}
		s.mu.Lock()
		for i := int64(0); i < n; i++ {
			s.slots[(start+i)%s.window].state = slotFree
		}
		// One broadcast serves both waiter kinds: depositors see their
		// slot freed, and the dispatcher's reserve sees base advanced
		// (base moved in the claim phase, but the free phase of the same
		// burst always follows, so deferring the wakeup here loses no
		// progress).
		if s.ringWaiters > 0 {
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
}

// dispatch routes src into the size-binned queues, assigning dense
// sequence numbers: big blocks one per bigQ slot, small blocks batched
// into recycled chunks. Both queues are bounded, so a full pipeline
// backpressures here — and through src to the producer. On
// cancellation the deferred closes run immediately; sequence numbers
// already assigned but never deposited become the gap the emitter
// stops at.
func (s *streamRun) dispatch(src <-chan *block.Block, done <-chan struct{}) {
	defer close(s.bigQ)
	defer close(s.smallQ)
	cur := <-s.chunkPool
	seq := int64(0)
	// baseFloor is a stale (never ahead) copy of the emitter's base:
	// while seq-baseFloor is inside the window the true span is too, so
	// the steady state routes without touching the ring lock; only near
	// the bound does reserve refresh it (and block until emissions make
	// room).
	baseFloor := int64(0)
	for {
		var b *block.Block
		var ok bool
		select {
		case <-done:
			return
		case b, ok = <-src:
		}
		if !ok {
			if len(cur) > 0 {
				select {
				case s.smallQ <- cur:
				case <-done:
				}
			}
			return
		}
		if b == nil {
			continue
		}
		if seq-baseFloor >= s.window {
			baseFloor = s.reserve(seq)
		}
		it := streamItem{seq: seq, b: b}
		seq++
		if b.Len() > smallCutoff {
			select {
			case s.bigQ <- it:
				if n := len(s.bigQ); n > s.bigPeak {
					s.bigPeak = n
				}
			case <-done:
				return
			}
			continue
		}
		cur = append(cur, it)
		if len(cur) == chunkSize {
			select {
			case s.smallQ <- cur:
				if n := len(s.smallQ); n > s.smallPeak {
					s.smallPeak = n
				}
			case <-done:
				return
			}
			select {
			case cur = <-s.chunkPool:
			case <-done:
				return
			}
		}
	}
}

// RunStream schedules blocks as they arrive on src, invoking sink once
// per block in sequence (arrival) order, and returns the run's Stats
// once src closes and the pipeline drains. Ingestion, scheduling and
// emission overlap through bounded queues, so memory is proportional
// to the queue depth — never to the stream's length — and schedules
// are byte-identical to Run over the same corpus (including under a
// FaultPlan: the faulted set is content-keyed, not position-keyed).
//
// The sink runs on a dedicated goroutine, serially and in order; the
// outcome's Order slice (and nothing else) is valid only during the
// call. A nil sink discards outcomes.
// Cancellation mirrors RunCtx: a stream still waiting for a worker
// returns at once, workers stop claiming at the next block boundary,
// the sink sees a dense prefix of the stream, and ctx's error is
// returned with the partial Stats.
//
//sched:cancellable
func (e *Engine) RunStream(ctx context.Context, src <-chan *block.Block, sink func(BlockOutcome)) (Stats, error) {
	if src == nil {
		return Stats{}, &ConfigError{Field: "src", Value: nil, Reason: "RunStream needs a source channel"}
	}
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
	depth := e.streamDepth
	nw := len(c.workers)

	// Ring sizing: the dispatcher's reserve call caps the in-flight
	// sequence span at the window, so correctness needs only window >=
	// 1. This formula instead sizes the ring so reserve is not the
	// binding constraint on a healthy pipeline: it has a slot for every
	// sequence number the bounded queues and workers could hold at once
	// — bigQ (<= depth), smallQ (<= smallCap chunks), the dispatcher's
	// partial chunk (< chunkSize), one chunk or big block per worker —
	// plus one, so the queues fill before the window does and
	// backpressure lands on src, not on the ring lock.
	smallCap := max(depth/chunkSize, 1)
	window := int64(depth + smallCap*chunkSize + chunkSize + nw*chunkSize + nw + 1)

	s := &streamRun{
		sink:       sink,
		keepOrders: e.cfg.KeepOrders,
		window:     window,
		slots:      make([]streamSlot, window),
		claimQueues: claimQueues{
			bigQ:      make(chan streamItem, depth),
			smallQ:    make(chan []streamItem, smallCap),
			chunkPool: make(chan []streamItem, smallCap+nw+2),
		},
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cap(s.chunkPool); i++ {
		s.chunkPool <- make([]streamItem, 0, chunkSize)
	}

	done := ctx.Done()
	start := time.Now()
	// The dispatcher is joined explicitly: on a cancelled stream it can
	// outlive the workers (work only joins them), and it writes the
	// queue peaks this function reads after the pipeline drains.
	dispDone := make(chan struct{})
	go func() {
		defer close(dispDone)
		s.dispatch(src, done)
	}()
	emitDone := make(chan struct{})
	go s.emitLoop(emitDone)
	c.work(&s.claimQueues, s, done)
	s.mu.Lock()
	s.finished = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-emitDone
	<-dispDone
	wall := time.Since(start)

	st := e.stats(c, wall, nil)
	st.BigQueuePeak = s.bigPeak
	st.SmallQueuePeak = s.smallPeak
	s.mu.Lock()
	st.PendingPeak = int(s.pendingPeak)
	firstErr, errSeq := s.firstErr, s.errSeq
	s.mu.Unlock()

	if err := ctx.Err(); err != nil {
		return st, fmt.Errorf("engine: stream cancelled: %w", err)
	}
	if firstErr != nil {
		return st, fmt.Errorf("engine: stream block %d: %w", errSeq, firstErr)
	}
	return st, nil
}
