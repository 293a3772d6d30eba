package diskcache

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// testOpts keeps test files tiny: 256 index slots, 64 KiB of data.
var testOpts = Options{Buckets: 256, DataBytes: 64 << 10}

func openTemp(t *testing.T, opts Options) (*Cache, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sched.cache")
	c, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, path
}

// rec builds a distinguishable record from a small seed.
func rec(seed int) Record {
	n := 3 + seed%5
	r := Record{
		Fp:     uint64(seed)*0x9e3779b97f4a7c15 + 1,
		Key:    []byte{byte(seed), byte(seed >> 8), 0xab, byte(n)},
		Cycles: int32(10 + seed),
		Arcs:   int32(seed % 7),
	}
	for i := 0; i < n; i++ {
		r.Order = append(r.Order, int32((i+seed)%n))
		r.Issue = append(r.Issue, int32(i*2))
	}
	return r
}

func requireHit(t *testing.T, c *Cache, r Record) Entry {
	t.Helper()
	var e Entry
	if !c.Lookup(r.Fp, r.Key, &e) {
		t.Fatalf("lookup missed fp %#x", r.Fp)
	}
	if e.Cycles != r.Cycles || e.Arcs != r.Arcs {
		t.Fatalf("meta mismatch: got (%d,%d) want (%d,%d)", e.Cycles, e.Arcs, r.Cycles, r.Arcs)
	}
	for i := range r.Order {
		if e.Order[i] != r.Order[i] || e.Issue[i] != r.Issue[i] {
			t.Fatalf("payload mismatch at %d: got (%d,%d) want (%d,%d)",
				i, e.Order[i], e.Issue[i], r.Order[i], r.Issue[i])
		}
	}
	return e
}

func TestDiskCacheRoundTrip(t *testing.T) {
	c, _ := openTemp(t, testOpts)
	var recs []Record
	for i := 0; i < 50; i++ {
		recs = append(recs, rec(i))
	}
	if err := c.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	var e Entry // one scratch across all lookups, as a worker would hold
	for _, r := range recs {
		requireHit(t, c, r)
		_ = e
	}
	if got := c.Len(); got != 50 {
		t.Fatalf("Len = %d, want 50", got)
	}
	// Duplicate appends are no-ops.
	if err := c.AppendBatch(recs[:10]); err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got != 50 {
		t.Fatalf("Len after duplicate appends = %d, want 50", got)
	}
}

func TestDiskCachePersistsAcrossReopen(t *testing.T) {
	c, path := openTemp(t, testOpts)
	r := rec(7)
	if err := c.Append(r.Fp, r.Key, r.Order, r.Issue, r.Cycles, r.Arcs); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	requireHit(t, c2, r)

	// And read-only too.
	c3, err := Open(path, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	requireHit(t, c3, r)
	if err := c3.Append(r.Fp, r.Key, r.Order, r.Issue, r.Cycles, r.Arcs); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only append: err = %v, want ErrReadOnly", err)
	}
	if err := c3.Remove(r.Fp, r.Key); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only remove: err = %v, want ErrReadOnly", err)
	}
}

// TestDiskCacheReopenReadOnly reopens a populated file read-only: every
// record must hit, and AppendBatch must refuse with ErrReadOnly without
// moving the data tail.
func TestDiskCacheReopenReadOnly(t *testing.T) {
	c, path := openTemp(t, testOpts)
	var recs []Record
	for i := 0; i < 40; i++ {
		recs = append(recs, rec(i))
	}
	if err := c.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(path, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if !ro.ReadOnly() {
		t.Fatal("ReadOnly() = false on a read-only handle")
	}
	for _, r := range recs {
		requireHit(t, ro, r)
	}
	tail := ro.Tail()
	if err := ro.AppendBatch([]Record{rec(100), rec(101)}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only AppendBatch: err = %v, want ErrReadOnly", err)
	}
	if got := ro.Tail(); got != tail {
		t.Errorf("read-only AppendBatch moved the tail: %d, want %d", got, tail)
	}
	if got := ro.Len(); got != len(recs) {
		t.Errorf("Len = %d, want %d", got, len(recs))
	}
}

// TestDiskCacheCollisionNoAlias forces two distinct keys onto the same
// fingerprint: the full-key compare must keep them apart, exactly like
// the in-process tier.
func TestDiskCacheCollisionNoAlias(t *testing.T) {
	c, _ := openTemp(t, testOpts)
	a := rec(1)
	b := rec(2)
	b.Fp = a.Fp // simulate a 64-bit collision
	if err := c.Append(a.Fp, a.Key, a.Order, a.Issue, a.Cycles, a.Arcs); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(b.Fp, b.Key, b.Order, b.Issue, b.Cycles, b.Arcs); err != nil {
		t.Fatal(err)
	}
	requireHit(t, c, a)
	requireHit(t, c, b)
	var e Entry
	if c.Lookup(a.Fp, []byte("some-unrelated-key-bytes...."[:len(a.Key)]), &e) {
		t.Fatal("lookup hit with a colliding fingerprint but wrong key")
	}
}

func TestDiskCacheRemoveTombstone(t *testing.T) {
	c, _ := openTemp(t, testOpts)
	a, b := rec(3), rec(4)
	b.Fp = a.Fp // share a probe chain so the tombstone must not break it
	for _, r := range []Record{a, b} {
		if err := c.Append(r.Fp, r.Key, r.Order, r.Issue, r.Cycles, r.Arcs); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Remove(a.Fp, a.Key); err != nil {
		t.Fatal(err)
	}
	var e Entry
	if c.Lookup(a.Fp, a.Key, &e) {
		t.Fatal("removed entry still served")
	}
	requireHit(t, c, b) // probes must skip the tombstone, not stop at it
	// A removed entry can be re-memoized (the slot is reused).
	if err := c.Append(a.Fp, a.Key, a.Order, a.Issue, a.Cycles, a.Arcs); err != nil {
		t.Fatal(err)
	}
	requireHit(t, c, a)
}

// corrupt reopens the raw file and applies f while no Cache holds it.
func corrupt(t *testing.T, path string, f func(raw []byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// populate writes nRecs records and closes, returning them.
func populate(t *testing.T, path string, nRecs int) []Record {
	t.Helper()
	c, err := Open(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < nRecs; i++ {
		recs = append(recs, rec(i))
	}
	if err := c.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestDiskCacheTornTailRecovery simulates a writer dying mid-append:
// garbage past the committed entries plus a nonzero open count. The
// next writable open must truncate the tail and keep every committed
// entry.
func TestDiskCacheTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.cache")
	recs := populate(t, path, 20)
	var tail int64
	{
		c, err := Open(path, testOpts)
		if err != nil {
			t.Fatal(err)
		}
		tail = c.Tail()
		c.Close()
	}
	corrupt(t, path, func(raw []byte) []byte {
		// Half an entry header of garbage at the tail, tail word
		// advanced over it (the dying writer had updated it), open
		// count left nonzero (the crash marker).
		binary.LittleEndian.PutUint64(raw[offTail:], uint64(tail+48))
		for i := int64(0); i < 48 && tail+i < int64(len(raw)); i++ {
			raw[tail+i] = byte(0xa5 ^ i)
		}
		binary.LittleEndian.PutUint64(raw[offOpenCount:], 1)
		return raw
	})
	c, err := Open(path, testOpts)
	if err != nil {
		t.Fatalf("torn-tail file failed to open: %v", err)
	}
	defer c.Close()
	if got := c.Tail(); got != tail {
		t.Fatalf("recovered tail = %d, want truncation back to %d", got, tail)
	}
	for _, r := range recs {
		requireHit(t, c, r)
	}
	// And the file keeps accepting appends at the recovered tail.
	extra := rec(999)
	if err := c.Append(extra.Fp, extra.Key, extra.Order, extra.Issue, extra.Cycles, extra.Arcs); err != nil {
		t.Fatal(err)
	}
	requireHit(t, c, extra)
}

// TestDiskCacheTruncatedHeader covers a file cut off inside the
// header: a writable open recreates it empty; a read-only open rejects
// it with ErrCorrupt.
func TestDiskCacheTruncatedHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.cache")
	populate(t, path, 5)
	corrupt(t, path, func(raw []byte) []byte { return raw[:100] })

	if _, err := Open(path, Options{ReadOnly: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read-only open of truncated header: err = %v, want ErrCorrupt", err)
	}
	c, err := Open(path, testOpts)
	if err != nil {
		t.Fatalf("writable open of truncated header: %v", err)
	}
	defer c.Close()
	if got := c.Len(); got != 0 {
		t.Fatalf("recreated file has %d entries, want 0", got)
	}
	r := rec(1)
	if err := c.Append(r.Fp, r.Key, r.Order, r.Issue, r.Cycles, r.Arcs); err != nil {
		t.Fatal(err)
	}
	requireHit(t, c, r)
}

// TestDiskCacheBitFlippedEntry flips one payload bit in a committed
// entry. The flipped entry must read as a miss (checksum) and a
// recovery pass must drop it (and everything after it — truncate, the
// append-only contract) while the prefix stays served.
func TestDiskCacheBitFlippedEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.cache")
	recs := populate(t, path, 10)

	// Find the 6th entry's offset by walking sizes like recovery does.
	c0, err := Open(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	off := c0.dataStart
	for i := 0; i < 5; i++ {
		keyLen := int(c0.u32(off + 8))
		n := int(c0.u32(off + 12))
		off += int64(pad8(entryHeader + pad4(keyLen) + 8*n))
	}
	flipAt := off + entryHeader + 1 // a key byte of entry 5
	c0.Close()

	corrupt(t, path, func(raw []byte) []byte {
		raw[flipAt] ^= 0x40
		binary.LittleEndian.PutUint64(raw[offOpenCount:], 1) // crashed-writer marker
		return raw
	})
	c, err := Open(path, testOpts)
	if err != nil {
		t.Fatalf("bit-flipped file failed to open: %v", err)
	}
	defer c.Close()
	for i, r := range recs {
		var e Entry
		hit := c.Lookup(r.Fp, r.Key, &e)
		if i < 5 && !hit {
			t.Fatalf("entry %d (before the flip) lost", i)
		}
		if i >= 5 && hit {
			t.Fatalf("entry %d at/after the flipped entry still served", i)
		}
	}
	if i := c.Len(); i != 5 {
		t.Fatalf("Len after recovery = %d, want 5", i)
	}
}

// TestDiskCacheBitFlipWithoutRecovery flips a payload bit but leaves
// the file marked clean — no recovery runs, so the poisoned entry is
// still indexed, and the per-lookup checksum alone must refuse it.
func TestDiskCacheBitFlipWithoutRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.cache")
	recs := populate(t, path, 3)
	c0, err := Open(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	flipAt := c0.dataStart + entryHeader + int64(pad4(len(recs[0].Key))) + 2 // order payload of entry 0
	c0.Close()
	corrupt(t, path, func(raw []byte) []byte {
		raw[flipAt] ^= 0x01
		return raw
	})
	c, err := Open(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var e Entry
	if c.Lookup(recs[0].Fp, recs[0].Key, &e) {
		t.Fatal("checksum accepted a bit-flipped entry")
	}
	requireHit(t, c, recs[1])
}

// TestDiskCacheVersionMismatch bumps the on-disk version: writable
// opens recreate, read-only opens reject.
func TestDiskCacheVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.cache")
	populate(t, path, 5)
	corrupt(t, path, func(raw []byte) []byte {
		binary.LittleEndian.PutUint32(raw[offVersion:], version+1)
		// Re-seal the header checksum so only the version disagrees.
		binary.LittleEndian.PutUint64(raw[offHeaderSum:], fnvBytes(fnvOffset, raw[:offHeaderSum]))
		return raw
	})
	if _, err := Open(path, Options{ReadOnly: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read-only open of future version: err = %v, want ErrCorrupt", err)
	}
	c, err := Open(path, testOpts)
	if err != nil {
		t.Fatalf("writable open of future version: %v", err)
	}
	defer c.Close()
	if got := c.Len(); got != 0 {
		t.Fatalf("version-mismatched file not recreated: %d entries", got)
	}
}

// TestDiskCacheGarbageIndex sprays garbage over the index region only:
// lookups must stay safe (bounds-checked slots, checksummed entries),
// never panic, and a recovery pass must restore service.
func TestDiskCacheGarbageIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.cache")
	recs := populate(t, path, 10)
	corrupt(t, path, func(raw []byte) []byte {
		for i := indexOff; i < indexOff+256*slotSize; i++ {
			raw[i] = byte(i * 2654435761)
		}
		binary.LittleEndian.PutUint64(raw[offOpenCount:], 1)
		return raw
	})
	c, err := Open(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, r := range recs {
		requireHit(t, c, r) // recovery rebuilt the index from the data
	}
}

func TestDiskCacheFull(t *testing.T) {
	c, _ := openTemp(t, Options{Buckets: 64, DataBytes: 4096})
	var err error
	for i := 0; i < 200 && err == nil; i++ {
		r := rec(i)
		err = c.Append(r.Fp, r.Key, r.Order, r.Issue, r.Cycles, r.Arcs)
	}
	if !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull once the data region is exhausted", err)
	}
	// Earlier entries still served.
	requireHit(t, c, rec(0))
}

// TestDiskCacheConcurrentLookups races lock-free readers against a
// writer appending fresh entries — the engine's actual access pattern
// (workers probing, the flusher publishing). Run under -race by CI.
func TestDiskCacheConcurrentLookups(t *testing.T) {
	c, _ := openTemp(t, Options{Buckets: 1024, DataBytes: 1 << 20})
	const nRecs = 200
	var recs []Record
	for i := 0; i < nRecs; i++ {
		recs = append(recs, rec(i))
	}
	if err := c.AppendBatch(recs[:nRecs/2]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			var e Entry
			for pass := 0; pass < 50; pass++ {
				for i := range recs {
					r := &recs[(i+seed)%nRecs]
					if c.Lookup(r.Fp, r.Key, &e) {
						if e.Cycles != r.Cycles {
							panic("served entry does not match its record")
						}
					} else if i+seed < nRecs/2 && seed == 0 && pass == 0 && i < nRecs/2 {
						// Entries from the initial batch can never miss.
						panic("committed entry missed")
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := nRecs / 2; i < nRecs; i++ {
			r := recs[i]
			if err := c.Append(r.Fp, r.Key, r.Order, r.Issue, r.Cycles, r.Arcs); err != nil {
				panic(err)
			}
		}
	}()
	wg.Wait()
	for _, r := range recs {
		requireHit(t, c, r)
	}
}

// TestDiskCacheTwoHandles maps the same file twice in one process —
// the closest an in-process test gets to two processes sharing the
// tier — and checks appends through one handle are served by the
// other without reopening.
func TestDiskCacheTwoHandles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.cache")
	a, err := Open(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	r := rec(42)
	if err := a.Append(r.Fp, r.Key, r.Order, r.Issue, r.Cycles, r.Arcs); err != nil {
		t.Fatal(err)
	}
	requireHit(t, b, r)
	if err := b.Remove(r.Fp, r.Key); err != nil {
		t.Fatal(err)
	}
	var e Entry
	if a.Lookup(r.Fp, r.Key, &e) {
		t.Fatal("removal through one handle not visible through the other")
	}
}

// TestDiskCacheLookupZeroAlloc is the acceptance gate for the warm hit
// path: once the scratch Entry has grown, Lookup performs zero heap
// allocations per hit.
func TestDiskCacheLookupZeroAlloc(t *testing.T) {
	c, _ := openTemp(t, testOpts)
	r := rec(9)
	if err := c.Append(r.Fp, r.Key, r.Order, r.Issue, r.Cycles, r.Arcs); err != nil {
		t.Fatal(err)
	}
	var e Entry
	if !c.Lookup(r.Fp, r.Key, &e) { // grow the scratch once
		t.Fatal("warm-up lookup missed")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if !c.Lookup(r.Fp, r.Key, &e) {
			t.Fatal("steady-state lookup missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state L2 hit path allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkDiskCacheLookupHit measures the steady-state L2 hit path:
// probe, decode into recycled scratch, key compare, checksum.
func BenchmarkDiskCacheLookupHit(b *testing.B) {
	path := filepath.Join(b.TempDir(), "sched.cache")
	c, err := Open(path, Options{Buckets: 1024, DataBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	r := rec(5)
	for i := range r.Order { // a realistically sized payload
		_ = i
	}
	big := Record{Fp: 77, Key: make([]byte, 128), Cycles: 9, Arcs: 3}
	for i := 0; i < 64; i++ {
		big.Order = append(big.Order, int32(63-i))
		big.Issue = append(big.Issue, int32(i))
		if i < len(big.Key) {
			big.Key[i] = byte(i)
		}
	}
	if err := c.Append(big.Fp, big.Key, big.Order, big.Issue, big.Cycles, big.Arcs); err != nil {
		b.Fatal(err)
	}
	var e Entry
	c.Lookup(big.Fp, big.Key, &e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Lookup(big.Fp, big.Key, &e) {
			b.Fatal("miss")
		}
	}
}
