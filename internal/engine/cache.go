package engine

import (
	"bytes"
	"encoding/binary"
	"sync"

	"daginsched/internal/isa"
	"daginsched/internal/machine"
)

// The block-fingerprint schedule cache. Benchmark corpora and real
// programs repeat small basic blocks constantly (compare-and-branch
// idioms, spill/reload pairs, epilogues), and the whole per-block
// pipeline — resource preparation, DAG construction, heuristics, list
// scheduling — is a pure function of the instruction sequence once the
// engine's machine model is fixed. Hashing a canonical encoding of the
// instructions therefore lets a repeated block skip the pipeline
// entirely: the memoized schedule is copied into the block's result
// slot and the common case becomes a hash lookup.
//
// The cache is striped into shards, each behind its own mutex, so
// concurrent workers do not serialize on one lock; it is bounded by a
// per-shard CLOCK (second-chance) eviction policy, so a hot working
// set survives cap pressure instead of being wiped wholesale; and it
// is exact — a lookup compares the full canonical encoding, so two
// distinct blocks can never alias, even on a 64-bit hash collision or
// when one block's encoding is a prefix of another's (the encoding is
// length-delimited throughout).

// cacheShardBits is the stripe count's log2; the shard selector's
// shift is derived from it, so changing the stripe count cannot
// silently desynchronize shard selection (see schedCache.shard and
// TestCacheShardSelection).
const cacheShardBits = 4

// cacheShards is the stripe count. 16 shards keep cross-worker
// contention negligible at the pool sizes the engine runs (mutex
// acquisitions are ~ns against ~µs block pipelines).
const cacheShards = 1 << cacheShardBits

// defaultCacheCap is the default total entry bound across all shards.
const defaultCacheCap = 1 << 16

// cacheEntry is one memoized block schedule. All fields are immutable
// after insert; readers may use them after dropping the shard lock.
type cacheEntry struct {
	key    []byte  // canonical block encoding, owned by the entry
	order  []int32 // scheduled order, owned by the entry
	issue  []int32 // issue cycle per node, owned by the entry
	cycles int32
	arcs   int32
	// ref is the CLOCK reference bit: set by every lookup hit (under
	// the shard lock), cleared by a passing eviction hand. An entry
	// with its bit set gets a second chance; one without is evicted.
	// Guarded by the owning cacheShard's mu — the one mutable field of
	// an otherwise-immutable entry, and only shard-locked code touches
	// it.
	ref bool
}

type cacheShard struct {
	mu sync.Mutex             //sched:lock-rank 20
	m  map[uint64]*cacheEntry //sched:guarded-by mu
	// ring is the CLOCK of resident hashes (capacity perShard, carved
	// once at construction) and hand the eviction cursor. A hash whose
	// entry was removed leaves a stale ring slot behind; the hand
	// treats such slots as free and reuses them.
	ring []uint64 //sched:guarded-by mu
	hand int      //sched:guarded-by mu
}

// schedCache is the sharded, bounded schedule cache.
type schedCache struct {
	perShard int
	shards   [cacheShards]cacheShard
}

func newSchedCache(capacity int) *schedCache {
	if capacity <= 0 {
		capacity = defaultCacheCap
	}
	per := capacity / cacheShards
	if per < 1 {
		per = 1
	}
	c := &schedCache{perShard: per}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*cacheEntry)
		c.shards[i].ring = make([]uint64, 0, per)
	}
	return c
}

func (c *schedCache) shard(h uint64) *cacheShard {
	// Use high bits for the stripe so it stays independent of the map's
	// own low-bit bucketing. The shift is derived from cacheShardBits,
	// never hard-coded, so the stripe count and the selector cannot
	// drift apart.
	return &c.shards[h>>(64-cacheShardBits)]
}

// lookup returns the entry for (h, key), or nil. The full encoding is
// compared, so a hash collision reads as a miss, never as a wrong hit.
//
//sched:noalloc
func (c *schedCache) lookup(h uint64, key []byte) *cacheEntry {
	s := c.shard(h)
	s.mu.Lock()
	e := s.m[h]
	if e != nil {
		// The CLOCK reference bit: this entry was wanted, so the next
		// eviction hand pass spares it once. Set under the shard lock
		// before the (lock-free) key compare; a hash-colliding miss
		// refreshing the colliding entry's bit is harmless.
		e.ref = true
	}
	s.mu.Unlock()
	if e != nil && bytes.Equal(e.key, key) {
		return e
	}
	return nil
}

// insert memoizes e under (h, key). If another block already occupies
// hash h (a 64-bit collision, or a concurrent worker winning the race
// on the same block), the existing entry is kept: first wins, and
// correctness never depends on an insert landing because hits
// re-verify the full key.
//
// The bound is CLOCK (second-chance) per shard: when the ring is full,
// the hand sweeps resident entries, clearing reference bits and
// evicting the first entry found without one. An entry that keeps
// getting hit keeps getting its bit re-set between hand passes, so a
// hot working set survives a stream of cold inserts — the failure mode
// of the old clear-on-cap reset, which wiped hot and cold alike.
//
//sched:noalloc
func (c *schedCache) insert(h uint64, e *cacheEntry) {
	s := c.shard(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.m[h]; exists {
		return
	}
	if len(s.ring) < cap(s.ring) {
		// Below cap: take a fresh ring slot, no eviction. (No noalloc
		// suppression needed: the cap-reading condition marks this as a
		// capacity-guarded arm.)
		s.ring = append(s.ring, h)
		s.m[h] = e
		return
	}
	// CLOCK sweep: a stale slot (its hash was removed) is free; a live
	// entry with its reference bit set is spared once; the first live
	// entry without one is evicted. The sweep terminates: each step
	// either stops or clears a bit, and bits are not re-set under this
	// shard's lock while we hold it.
	//sched:lint-ignore cancelpoll the sweep terminates on its own: every iteration clears a reference bit or stops, bounded by perShard
	for {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		old := s.m[s.ring[s.hand]]
		if old == nil {
			break // stale slot: reuse without evicting anything
		}
		if !old.ref {
			delete(s.m, s.ring[s.hand])
			break
		}
		old.ref = false
		s.hand++
	}
	s.ring[s.hand] = h
	s.hand++
	//sched:lint-ignore noalloc map insert is the cache's one sanctioned allocation, bounded by perShard and amortized across hits
	s.m[h] = e
}

// remove drops the entry memoized under (h, key): the hardened
// runtime's response to a cache-served schedule failing the output
// gate, so a poisoned entry cannot be served twice. The full encoding
// is compared under the shard lock — a colliding entry for a
// different block is left alone.
func (c *schedCache) remove(h uint64, key []byte) {
	s := c.shard(h)
	s.mu.Lock()
	// Deferred, not paired: remove runs inside the recover boundary
	// (gate failures on the hardened path land here), and a panic out
	// of the key compare must not leak a locked shard to quarantine.
	defer s.mu.Unlock()
	if e := s.m[h]; e != nil && bytes.Equal(e.key, key) {
		delete(s.m, h)
	}
}

// entries returns the current total entry count (tests only).
func (c *schedCache) entries() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// appendBlockKey appends the canonical encoding of a block's
// instruction sequence to dst. The encoding covers every instruction
// field the scheduling pipeline can observe — opcode, register
// operands, immediate, memory expression (base, index, offset, symbol)
// and the annul bit — and is length-delimited (leading instruction
// count, length-prefixed symbols) so no block's encoding is a prefix
// of another's. Labels and branch target names are deliberately
// excluded: dependence analysis, machine delays and the schedulers
// never read them. The machine model needs no encoding here because
// the L1 is private to one Engine, whose configuration is immutable;
// the disk tier, which outlives the engine, folds in modelKey.
func appendBlockKey(dst []byte, insts []isa.Inst) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(insts)))
	for i := range insts {
		in := &insts[i]
		var flags byte
		if in.HasImm {
			flags |= 1
		}
		if in.Annul {
			flags |= 2
		}
		dst = append(dst, byte(in.Op), byte(in.RS1), byte(in.RS2), byte(in.RD), flags)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(in.Imm))
		dst = append(dst, byte(in.Mem.Base), byte(in.Mem.Index))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(in.Mem.Offset))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(in.Mem.Sym)))
		dst = append(dst, in.Mem.Sym...)
	}
	return dst
}

// modelKey fingerprints every machine.Model field that can change a
// schedule: name, issue width, the delay parameters and flags, the
// per-class unit structure and the per-opcode latencies. A new Model
// field that changes schedules must be encoded here too
// (TestModelKeyCoversModel counts the fields).
func modelKey(m *machine.Model) uint64 {
	var dst []byte
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Name)))
	dst = append(dst, m.Name...)
	for _, v := range [...]int{m.IssueWidth, m.WARDelay, m.PairSkew} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	var flags byte
	if m.AsymBypass {
		flags |= 1
	}
	if m.StoreForward {
		flags |= 2
	}
	dst = append(dst, flags)
	for c := range m.Units {
		np := byte(0)
		if m.NonPipelined[c] {
			np = 1
		}
		dst = append(dst, np)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Units[c]))
	}
	for op := range isa.NumOpcodes {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Latency(isa.Opcode(op))))
	}
	return fnv1a64(dst)
}

// BlockKey returns the engine's content fingerprint for an
// instruction sequence — the same 64-bit key the schedule cache and
// the fault injector derive internally. It is exported so chaos tests
// can recompute which blocks a fault.Plan selects
// (fault.Injector.Should / Any over this key) without running an
// engine.
func BlockKey(insts []isa.Inst) uint64 {
	return fnv1a64(appendBlockKey(nil, insts))
}

// fnv1a64 is the 64-bit FNV-1a hash of b.
func fnv1a64(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
