// The persistent (L2) tier of the two-tier schedule cache. The
// in-process striped cache (cache.go) evaporates on every restart;
// Config.CachePath backs it with internal/diskcache's memory-mapped,
// crash-safe, content-keyed file, shared across processes and
// restarts. The tiering protocol (worker.lookup in engine.go):
//
//   - L1 miss → L2 probe. A hit decodes straight from the mapping into
//     the worker's recycled scratch (zero allocations in steady state),
//     passes the structural half of the output gate, is promoted into
//     L1 (so the next occurrence is an L1 hit), and serves the block.
//   - L2 miss → the block runs the normal pipeline; a healthy primary
//     result is inserted into L1 and handed to the write-behind
//     flusher, a single goroutine that drains the pending list in
//     batches, each under one flock acquisition — workers never block
//     on disk (enqueueing is a slice append under a briefly-held
//     mutex), and nothing is dropped: whatever the flusher has not
//     caught up with, Close flushes before releasing the file.
//   - A served schedule that fails the gate is removed from BOTH tiers
//     before the block recomputes, so a poisoned entry cannot be
//     served twice by either cache — in this process or any other.
//
// Content-keyed fingerprints make persistence safe by construction:
// the disk tier stores the same canonical block encodings the L1 keys
// on, every lookup re-validates key and checksum, and the always-on
// legality gate re-checks every served order. The L1 is private to
// one engine and so to one machine model, but a file is not: every
// disk fingerprint is the block's L1 hash XORed with the model's
// (modelKey), so engines for different models sharing one file never
// serve each other's schedules.

package engine

import (
	"sync"
	"sync/atomic"

	"daginsched/internal/diskcache"
)

// diskTier owns the engine's handle on the persistent cache plus the
// write-behind machinery: a double-buffered pending list the workers
// append to under a briefly-held mutex, and one flusher goroutine that
// swaps the buffers and writes each swap's batch under a single flock
// acquisition. The list is unbounded on purpose — its entries alias
// the L1 cacheEntry copies, so the marginal memory is slice headers,
// and losing none of them is what lets a single cold run populate the
// file completely (the warm-start gate demands every schedule be
// served from disk, not "most, minus whatever a full queue dropped").
type diskTier struct {
	c     *diskcache.Cache
	model uint64 // modelKey of the engine's machine, folded into every fingerprint
	wg    sync.WaitGroup
	// unwritten counts records enqueued but not yet appended to the
	// file, a batch the flusher has swapped out included. It belongs to
	// the Engine, which outlives the tier (Engine.DiskPending).
	unwritten *atomic.Int64

	mu      sync.Mutex         //sched:lock-rank 30
	pending []diskcache.Record //sched:guarded-by mu
	closed  bool               //sched:guarded-by mu
	kick    chan struct{}      // wakes the flusher; buffered, never blocks
}

// newDiskTier opens the cache file for an engine whose machine model
// fingerprints to model, and starts the flusher; unwritten is where it
// counts its backlog.
func newDiskTier(path string, model uint64, unwritten *atomic.Int64) (*diskTier, error) {
	c, err := diskcache.Open(path, diskcache.Options{})
	if err != nil {
		return nil, err
	}
	t := &diskTier{c: c, model: model, unwritten: unwritten, kick: make(chan struct{}, 1)}
	t.wg.Add(1)
	go t.flusher()
	return t, nil
}

// flusher is the write-behind goroutine: each wakeup swaps the pending
// list for its recycled spare and appends the whole batch under one
// flock acquisition. It exits when close is flagged and the list is
// drained, so nothing enqueued before Close is ever lost.
func (t *diskTier) flusher() {
	defer t.wg.Done()
	var spare []diskcache.Record
	for {
		t.mu.Lock()
		batch := t.pending
		t.pending = spare[:0]
		closed := t.closed
		t.mu.Unlock()
		if len(batch) > 0 {
			t.c.AppendBatch(batch) // an ErrFull here only costs future recomputes
			t.unwritten.Add(-int64(len(batch)))
		}
		spare = batch
		if len(batch) > 0 {
			// More may have accumulated while we held the flock; drain
			// before sleeping.
			continue
		}
		if closed {
			return
		}
		<-t.kick
	}
}

// enqueue hands a freshly memoized entry to the flusher. The worker
// never touches the disk or the flock: it appends to the pending list
// under the mutex and pokes the (buffered) wake channel.
func (t *diskTier) enqueue(h uint64, ent *cacheEntry) {
	// The entry's slices are immutable after the L1 insert, so the
	// record may alias them; the flusher only reads.
	rec := diskcache.Record{Fp: h ^ t.model, Key: ent.key, Order: ent.order, Issue: ent.issue, Cycles: ent.cycles, Arcs: ent.arcs}
	t.unwritten.Add(1) // before the append, so the count is never short
	t.mu.Lock()
	closed := t.closed
	if !closed {
		t.pending = append(t.pending, rec)
	}
	t.mu.Unlock()
	if closed {
		t.unwritten.Add(-1)
	}
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// remove propagates a poisoned-entry removal to the disk tier.
func (t *diskTier) remove(h uint64, key []byte) {
	t.c.Remove(h^t.model, key)
}

// close flushes every pending write and releases the file.
func (t *diskTier) close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	select {
	case t.kick <- struct{}{}:
	default:
	}
	t.wg.Wait()
	return t.c.Close()
}

// Close waits for in-flight Run, RunSource and RunStream calls (it
// checks out every worker), then releases the persistent cache tier:
// the write-behind flusher drains, the file is unmapped and closed
// (marking a clean shutdown for crash recovery). Later and concurrent
// calls wait for the first and return nil; a RunSource or RunStream
// sink must not call it. The
// engine remains usable — later runs just lose the disk tier.
func (e *Engine) Close() error {
	var err error
	e.closeOnce.Do(func() {
		for range e.workers {
			<-e.free
		}
		if e.disk != nil {
			err = e.disk.close()
			e.disk = nil
		}
		for _, w := range e.workers {
			e.free <- w
		}
	})
	return err
}

// DiskPending reports how many schedules the engine has handed to the
// persistent tier's write-behind flusher that the flusher has not
// appended yet. Zero means it has caught up: every schedule computed so
// far is in the file, unless the file was full (or the engine has no
// disk tier).
func (e *Engine) DiskPending() int64 { return e.diskPending.Load() }

// probeDisk is the L2 lookup: it runs only after an L1 miss and
// decodes into the worker's recycled scratch. Zero allocations once
// the scratch has grown to the corpus's largest block.
//
//sched:noalloc
func (w *worker) probeDisk(h uint64) bool {
	t := w.e.disk
	return t.c.Lookup(h^t.model, w.enc, &w.l2)
}
