package engine

import (
	"bytes"
	"strings"
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/isa"
	"daginsched/internal/machine"
	"daginsched/internal/testgen"
)

// cloneBlock deep-copies a block so the corpus holds genuinely distinct
// *block.Block values with identical instruction sequences — the
// situation the fingerprint cache exists for.
func cloneBlock(b *block.Block) *block.Block {
	insts := append([]isa.Inst(nil), b.Insts...)
	return &block.Block{Name: b.Name + "'", Insts: insts}
}

// TestCacheCollisionNoAlias drives the sharded cache directly: an entry
// stored under hash h must not be returned for a different key that
// lands on the same hash, and a later insert under an occupied hash
// must not displace the first entry (first wins).
func TestCacheCollisionNoAlias(t *testing.T) {
	c := newSchedCache(0)
	keyA := []byte("block-a-canonical-encoding")
	keyB := []byte("block-b-canonical-encoding")
	h := fnv1a64(keyA) // pretend keyB collides onto the same hash

	entA := &cacheEntry{key: keyA, cycles: 7}
	c.insert(h, entA)
	if got := c.lookup(h, keyA); got != entA {
		t.Fatal("lookup with the stored key missed")
	}
	if got := c.lookup(h, keyB); got != nil {
		t.Fatalf("hash collision aliased: got entry with cycles=%d", got.cycles)
	}

	// First wins: a colliding insert leaves the original entry in place.
	c.insert(h, &cacheEntry{key: keyB, cycles: 99})
	if got := c.lookup(h, keyA); got != entA {
		t.Fatal("colliding insert displaced the first entry")
	}
	if got := c.lookup(h, keyB); got != nil {
		t.Fatal("colliding insert aliased the occupied hash")
	}
}

// TestCacheKeyPrefixNoAlias checks the canonical encoding is
// length-delimited: a block that is an exact prefix of another must
// produce a different key (and so a different fingerprint), not a
// prefix-aliased one.
func TestCacheKeyPrefixNoAlias(t *testing.T) {
	insts := testgen.Block(321, 24)
	full := &block.Block{Name: "full", Insts: insts}
	prefix := &block.Block{Name: "prefix", Insts: insts[:12]}

	keyFull := appendBlockKey(nil, full.Insts)
	keyPrefix := appendBlockKey(nil, prefix.Insts)
	if bytes.Equal(keyFull, keyPrefix) {
		t.Fatal("prefix block encodes identically to the full block")
	}
	if bytes.HasPrefix(keyFull, keyPrefix) {
		t.Fatal("prefix block's encoding is a byte prefix of the full block's")
	}
	if fnv1a64(keyFull) == fnv1a64(keyPrefix) {
		t.Fatal("prefix and full block share a fingerprint")
	}

	// End to end: scheduling both must record two misses and no hits.
	for i := range full.Insts {
		full.Insts[i].Index = i
	}
	for i := range prefix.Insts {
		prefix.Insts[i].Index = i
	}
	e, err := New(Config{Workers: 1, Model: machine.Pipe1(), Cache: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run([]*block.Block{full, prefix})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits != 0 || res.Stats.CacheMisses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2", res.Stats.CacheHits, res.Stats.CacheMisses)
	}
}

// TestCacheCapBound checks the bound: however many distinct blocks
// flow through, the entry count never exceeds the configured cap (the
// CLOCK hand evicts one resident entry per over-cap insert).
func TestCacheCapBound(t *testing.T) {
	const cap = 64 // 4 entries per shard
	c := newSchedCache(cap)
	for i := 0; i < 10*cap; i++ {
		key := appendBlockKey(nil, testgen.Block(int64(i), 3))
		key = append(key, byte(i), byte(i>>8)) // force distinct keys
		c.insert(fnv1a64(key), &cacheEntry{key: key})
		if n := c.entries(); n > cap {
			t.Fatalf("after %d inserts cache holds %d entries, cap %d", i+1, n, cap)
		}
	}
	if c.entries() == 0 {
		t.Fatal("cache empty after inserts — eviction is clearing eagerly")
	}
}

// TestCacheClockRetainsHotKeys is the churn test for CLOCK eviction: a
// small hot working set that is looked up between waves of cold
// inserts must survive cap pressure — the guarantee the old
// clear-on-cap reset could not give.
func TestCacheClockRetainsHotKeys(t *testing.T) {
	const cap = 64
	c := newSchedCache(cap)
	mkKey := func(i int) ([]byte, uint64) {
		key := appendBlockKey(nil, testgen.Block(int64(i), 3))
		key = append(key, byte(i), byte(i>>8), byte(i>>16))
		return key, fnv1a64(key)
	}
	// A hot set well under one shard's share of the cap.
	type hot struct {
		key []byte
		h   uint64
	}
	var hots []hot
	for i := 0; i < 8; i++ {
		key, h := mkKey(1 << 20 * (i + 1))
		c.insert(h, &cacheEntry{key: key})
		hots = append(hots, hot{key, h})
	}
	// Churn: many times the total cap in cold inserts, with the hot
	// set looked up between inserts — the repetitive-corpus pattern.
	// Every lookup re-arms the reference bits, so the CLOCK hand
	// spares the hot entries; the old clear-on-cap reset wiped them
	// the moment any of their shards filled.
	for i := 0; i < 10*cap; i++ {
		for _, hk := range hots {
			if c.lookup(hk.h, hk.key) == nil {
				t.Fatalf("cold insert %d: hot key evicted under churn", i)
			}
		}
		key, h := mkKey(10000 + i)
		c.insert(h, &cacheEntry{key: key})
	}
	for _, hk := range hots {
		if c.lookup(hk.h, hk.key) == nil {
			t.Fatal("hot key evicted after churn")
		}
	}
	if n := c.entries(); n > cap {
		t.Fatalf("cache holds %d entries, cap %d", n, cap)
	}
}

// TestCacheClockEvictionAfterRemove checks the ring tolerates stale
// slots: removing entries then inserting past the cap must neither
// exceed the bound nor lose the ability to evict.
func TestCacheClockEvictionAfterRemove(t *testing.T) {
	const cap = 32
	c := newSchedCache(cap)
	mkKey := func(i int) ([]byte, uint64) {
		key := appendBlockKey(nil, testgen.Block(int64(i), 3))
		key = append(key, byte(i), byte(i>>8), byte(i>>16))
		return key, fnv1a64(key)
	}
	var keys [][]byte
	var hs []uint64
	for i := 0; i < cap; i++ {
		key, h := mkKey(i)
		c.insert(h, &cacheEntry{key: key})
		keys, hs = append(keys, key), append(hs, h)
	}
	for i := 0; i < cap/2; i++ { // poison-removal pattern
		c.remove(hs[i], keys[i])
	}
	for i := 0; i < 4*cap; i++ {
		key, h := mkKey(1000 + i)
		c.insert(h, &cacheEntry{key: key})
		if n := c.entries(); n > cap {
			t.Fatalf("after removals+%d inserts cache holds %d entries, cap %d", i+1, n, cap)
		}
	}
}

// TestCacheShardSelection is the satellite guard for the shard
// selector: the shift must be derived from cacheShardBits (so the
// stripe count and selector cannot drift), every shard must be
// reachable, and out-of-range indices impossible.
func TestCacheShardSelection(t *testing.T) {
	if 1<<cacheShardBits != cacheShards {
		t.Fatalf("cacheShards = %d is not 1<<cacheShardBits (%d)", cacheShards, 1<<cacheShardBits)
	}
	c := newSchedCache(0)
	seen := make(map[int]bool)
	for i := 0; i < 1<<12; i++ {
		h := uint64(i) * 0x9e3779b97f4a7c15 // spread bits across the word
		s := c.shard(h)
		idx := -1
		for j := range c.shards {
			if s == &c.shards[j] {
				idx = j
			}
		}
		if idx < 0 {
			t.Fatal("shard() returned a pointer outside the shard array")
		}
		if want := int(h >> (64 - cacheShardBits)); idx != want {
			t.Fatalf("hash %#x routed to shard %d, want high-bit stripe %d", h, idx, want)
		}
		seen[idx] = true
	}
	if len(seen) != cacheShards {
		t.Fatalf("only %d of %d shards reachable over 4096 hashes", len(seen), cacheShards)
	}
}

// TestEngineCacheHitRateAndIdenticalOutput is the satellite end-to-end
// check: driving the same corpus through a cache-enabled engine twice
// must hit on the second pass, and every run — cache cold, cache warm,
// cache disabled — must produce byte-identical schedules, with the
// scoreboard simulator co-signing cached hits via Verify.
func TestEngineCacheHitRateAndIdenticalOutput(t *testing.T) {
	m := machine.Pipe1()
	base := testBlocks(t, 20)
	// Duplicate every block (as a distinct allocation) so hits occur
	// within a single pass too, not only across passes.
	corpus := make([]*block.Block, 0, 2*len(base))
	for _, b := range base {
		corpus = append(corpus, b, cloneBlock(b))
	}

	wantOrders, wantCycles, wantArcs := serialReference(corpus, m)

	on, err := New(Config{Workers: 1, Model: m, KeepOrders: true, Verify: true, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	first, err := on.Run(corpus)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBatch(t, wantOrders, wantCycles, wantArcs, first)
	// Each duplicated block should hit its twin even on the cold pass.
	if first.Stats.CacheHits < int64(len(base)) {
		t.Fatalf("cold pass hits=%d, want >= %d (duplicated corpus)",
			first.Stats.CacheHits, len(base))
	}

	second, err := on.Run(corpus)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBatch(t, wantOrders, wantCycles, wantArcs, second)
	if second.Stats.CacheHitRate != 1.0 {
		t.Fatalf("warm pass hit rate %.3f (hits=%d misses=%d), want 1.0",
			second.Stats.CacheHitRate, second.Stats.CacheHits, second.Stats.CacheMisses)
	}
}

// TestEngineCacheDeterminism is the race-suite target: eight workers
// racing on a cache-enabled engine must produce schedules byte-identical
// to the cache-free serial reference, across repeated runs (cold
// cache, then warm). scripts/ci.sh runs this under -race.
func TestEngineCacheDeterminism(t *testing.T) {
	m := machine.Pipe1()
	blocks := testBlocks(t, 60)
	wantOrders, wantCycles, wantArcs := serialReference(blocks, m)

	e8, err := New(Config{Workers: 8, Model: m, KeepOrders: true, Verify: true, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		par, err := e8.Run(blocks)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		requireSameBatch(t, wantOrders, wantCycles, wantArcs, par)
	}
}

// TestVerifyCatchesCorruptCacheHit corrupts a memoized entry in place
// and checks Config.Verify refuses the poisoned hit: cached schedules
// get the same independent scoreboard witness as computed ones.
func TestVerifyCatchesCorruptCacheHit(t *testing.T) {
	m := machine.Pipe1()
	blocks := testBlocks(t, 4)
	e, err := New(Config{Workers: 1, Model: m, KeepOrders: true, Verify: true, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(blocks); err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for i := range e.cache.shards {
		s := &e.cache.shards[i]
		for _, ent := range s.m {
			if len(ent.order) > 0 {
				ent.cycles++ // poison the memoized completion time
				corrupted++
			}
		}
	}
	if corrupted == 0 {
		t.Fatal("no non-empty cache entries to corrupt")
	}
	_, err = e.Run(blocks)
	if err == nil {
		t.Fatal("Verify accepted a corrupted cache hit")
	}
	if !strings.Contains(err.Error(), "cycles") {
		t.Fatalf("unexpected verify error: %v", err)
	}
}
