package engine

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/fault"
	"daginsched/internal/isa"
	"daginsched/internal/machine"
)

// diskPath returns a per-test cache-file path under t's temp dir.
func diskPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "sched.cache")
}

// closeEngine closes e, failing the test on error.
func closeEngine(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// distinctBlocks counts content-distinct blocks: duplicates (the
// zero-length blocks testBlocks emits are all identical) are served
// from L1 after the first occurrence's promote-on-hit, so warm-run
// disk hits equal the distinct count, not the corpus length.
func distinctBlocks(blocks []*block.Block) int {
	seen := make(map[uint64]bool, len(blocks))
	for _, b := range blocks {
		seen[BlockKey(b.Insts)] = true
	}
	return len(seen)
}

// TestDiskWarmStart is the tentpole's correctness gate: one engine
// populates the cache file, a second engine — a fresh process as far
// as the tiers are concerned, with an empty L1 — reopens it and must
// serve every block from disk with schedules byte-identical to a
// cache-disabled run of the same corpus.
func TestDiskWarmStart(t *testing.T) {
	m := machine.Super2()
	blocks := testBlocks(t, 40)
	path := diskPath(t)

	ref, err := New(Config{Workers: 4, Model: m, KeepOrders: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := New(Config{Workers: 4, Model: m, KeepOrders: true, Verify: true, CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	cres, err := cold.Run(blocks)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if cres.Stats.DiskHits != 0 {
		t.Errorf("cold run reports %d disk hits from an empty file", cres.Stats.DiskHits)
	}
	if cres.Stats.CacheMisses == 0 {
		t.Fatal("cold run reports no cache misses; the corpus cannot all be duplicates")
	}
	closeEngine(t, cold) // drains the write-behind queue

	warm, err := New(Config{Workers: 4, Model: m, KeepOrders: true, Verify: true, CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer closeEngine(t, warm)
	wres, err := warm.Run(blocks)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	distinct := int64(distinctBlocks(blocks))
	if wres.Stats.DiskHits != distinct {
		t.Errorf("warm run: %d disk hits, want %d (misses %d, l1 hits %d)",
			wres.Stats.DiskHits, distinct, wres.Stats.CacheMisses, wres.Stats.CacheHits)
	}
	if wres.Stats.CacheMisses != 0 {
		t.Errorf("warm run: %d cache misses, want 0", wres.Stats.CacheMisses)
	}
	if wres.Stats.CacheHitRate != 1.0 {
		t.Errorf("warm run: hit rate %v, want 1.0", wres.Stats.CacheHitRate)
	}
	requireSameOrders(t, want, wres)

	// Promote-on-hit: a second warm pass finds everything in L1.
	wres2, err := warm.Run(blocks)
	if err != nil {
		t.Fatalf("second warm run: %v", err)
	}
	if wres2.Stats.CacheHits != int64(len(blocks)) {
		t.Errorf("second warm run: %d L1 hits, want %d (disk hits %d)",
			wres2.Stats.CacheHits, len(blocks), wres2.Stats.DiskHits)
	}
	if wres2.Stats.DiskHits != 0 {
		t.Errorf("second warm run: %d disk hits, want 0 after promotion", wres2.Stats.DiskHits)
	}
	requireSameOrders(t, want, wres2)
}

// requireSameOrders compares cycles, arcs and full scheduled orders.
func requireSameOrders(t *testing.T, want, got *BatchResult) {
	t.Helper()
	for i := range want.Cycles {
		if got.Cycles[i] != want.Cycles[i] {
			t.Fatalf("block %d: cycles %d, want %d", i, got.Cycles[i], want.Cycles[i])
		}
		if got.Arcs[i] != want.Arcs[i] {
			t.Fatalf("block %d: arcs %d, want %d", i, got.Arcs[i], want.Arcs[i])
		}
		if len(got.Orders[i]) != len(want.Orders[i]) {
			t.Fatalf("block %d: order length %d, want %d", i, len(got.Orders[i]), len(want.Orders[i]))
		}
		for k := range want.Orders[i] {
			if got.Orders[i][k] != want.Orders[i][k] {
				t.Fatalf("block %d position %d: node %d, want %d", i, k, got.Orders[i][k], want.Orders[i][k])
			}
		}
	}
}

// TestDiskWarmStartStream runs the warm pass through RunStream: the
// streaming pipeline must serve the same disk hits and emit schedules
// identical to the batch reference.
func TestDiskWarmStartStream(t *testing.T) {
	m := machine.Pipe1()
	blocks := testBlocks(t, 50)
	path := diskPath(t)

	ref, err := New(Config{Workers: 4, Model: m, KeepOrders: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := New(Config{Workers: 4, Model: m, CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Run(blocks); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	closeEngine(t, cold)

	warm, err := New(Config{Workers: 4, Model: m, KeepOrders: true, Verify: true, CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer closeEngine(t, warm)
	src := make(chan *block.Block)
	go func() {
		for _, b := range blocks {
			src <- b
		}
		close(src)
	}()
	got := make([][]int32, len(blocks))
	cycles := make([]int32, len(blocks))
	st, err := warm.RunStream(nil, src, func(o BlockOutcome) {
		cycles[o.Seq] = o.Cycles
		got[o.Seq] = append([]int32(nil), o.Order...)
	})
	if err != nil {
		t.Fatalf("warm stream: %v", err)
	}
	if distinct := int64(distinctBlocks(blocks)); st.DiskHits != distinct {
		t.Errorf("warm stream: %d disk hits, want %d (misses %d, l1 hits %d)",
			st.DiskHits, distinct, st.CacheMisses, st.CacheHits)
	}
	for i := range blocks {
		if cycles[i] != want.Cycles[i] {
			t.Fatalf("block %d: cycles %d, want %d", i, cycles[i], want.Cycles[i])
		}
		for k := range want.Orders[i] {
			if got[i][k] != want.Orders[i][k] {
				t.Fatalf("block %d position %d: node %d, want %d", i, k, got[i][k], want.Orders[i][k])
			}
		}
	}
}

// TestDiskCrossModel shares one cache file between engines for two
// machine models. The block encoding alone cannot tell their schedules
// apart, so without the model in the disk fingerprint a Pipe1 engine
// reopening a file a Super2 engine populated would serve Super2
// schedules. Each model must miss the other's entries, compute its own
// schedules, and then warm-start from its own entries in the shared
// file.
func TestDiskCrossModel(t *testing.T) {
	blocks := testBlocks(t, 30)
	path := diskPath(t)
	distinct := int64(distinctBlocks(blocks))

	run := func(m *machine.Model) *BatchResult {
		t.Helper()
		e, err := New(Config{Workers: 2, Model: m, KeepOrders: true, CachePath: path})
		if err != nil {
			t.Fatal(err)
		}
		defer closeEngine(t, e)
		res, err := e.Run(blocks)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		return res
	}
	for _, m := range []*machine.Model{machine.Super2(), machine.Pipe1()} {
		wantOrders, wantCycles, wantArcs := serialReference(blocks, m)
		cold := run(m)
		if cold.Stats.DiskHits != 0 {
			t.Errorf("%s cold run: %d disk hits from another model's entries", m.Name, cold.Stats.DiskHits)
		}
		requireSameBatch(t, wantOrders, wantCycles, wantArcs, cold)
		warm := run(m)
		if warm.Stats.DiskHits != distinct {
			t.Errorf("%s warm run: %d disk hits, want %d", m.Name, warm.Stats.DiskHits, distinct)
		}
		requireSameBatch(t, wantOrders, wantCycles, wantArcs, warm)
	}
}

// TestModelKeyCoversModel pins modelKey to the machine.Model it
// fingerprints: every preset gets a distinct key, a one-opcode latency
// change moves it, and the field count guards against a new Model
// field that modelKey does not encode.
func TestModelKeyCoversModel(t *testing.T) {
	if n := reflect.TypeOf(machine.Model{}).NumField(); n != 9 {
		t.Fatalf("machine.Model has %d fields; update modelKey and this count", n)
	}
	seen := map[uint64]string{}
	for _, m := range []*machine.Model{machine.Pipe1(), machine.FPU(), machine.Asym(), machine.Super2(), machine.Deep()} {
		k := modelKey(m)
		if prev, dup := seen[k]; dup {
			t.Errorf("models %s and %s share key %#x", prev, m.Name, k)
		}
		seen[k] = m.Name
	}
	m := machine.Pipe1()
	k := modelKey(m)
	m.SetLatency(isa.LD, m.Latency(isa.LD)+1)
	if modelKey(m) == k {
		t.Error("a latency change left modelKey unchanged")
	}
}

// TestDiskBitflipFault points the cache-bitflip injection at the
// persistent tier: every warm hit is served through a poisoned scratch
// copy, the output gate must reject it, the entry must be purged from
// both tiers, and the recomputed schedule must match the fault-free
// reference exactly.
func TestDiskBitflipFault(t *testing.T) {
	m := machine.Super2()
	blocks := testBlocks(t, 40)
	path := diskPath(t)

	ref, err := New(Config{Workers: 4, Model: m, KeepOrders: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := New(Config{Workers: 4, Model: m, CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Run(blocks); err != nil {
		t.Fatal(err)
	}
	closeEngine(t, cold)

	chaotic, err := New(Config{
		Workers: 4, Model: m, KeepOrders: true, Verify: true, CachePath: path,
		FaultPlan: &fault.Plan{Seed: 7, CacheBitflip: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeEngine(t, chaotic)
	res, err := chaotic.Run(blocks)
	if err != nil {
		t.Fatalf("chaotic warm run: %v", err)
	}
	// FlipBit is a no-op on empty orders, so zero-length blocks are
	// served unflipped; every other distinct block's disk hit must fail
	// the gate (duplicates land in L1 after the recompute's insert).
	empties, nonEmpties := 0, 0
	seen := make(map[uint64]bool)
	for _, b := range blocks {
		h := BlockKey(b.Insts)
		if seen[h] {
			continue
		}
		seen[h] = true
		if b.Len() == 0 {
			empties++
		} else {
			nonEmpties++
		}
	}
	if res.Stats.GateFailures != int64(nonEmpties) {
		t.Errorf("gate failures %d, want %d", res.Stats.GateFailures, nonEmpties)
	}
	if res.Stats.DiskHits != int64(empties) {
		t.Errorf("disk hits %d, want %d (only empty-order blocks survive a flip)", res.Stats.DiskHits, empties)
	}
	requireSameOrders(t, want, res)
}

// TestDiskPoisonPurgedFromFile verifies the cross-process half of
// poisoned-entry removal: after a gate failure purges an entry, a later
// engine over the same file must miss it (and recompute), not be
// served the poison.
func TestDiskPoisonPurgedFromFile(t *testing.T) {
	m := machine.Pipe1()
	blocks := testBlocks(t, 20)
	path := diskPath(t)

	cold, err := New(Config{Workers: 2, Model: m, CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Run(blocks); err != nil {
		t.Fatal(err)
	}
	closeEngine(t, cold)

	// Serve every entry through the bitflip so the gate purges the
	// non-empty ones from the file.
	chaotic, err := New(Config{
		Workers: 2, Model: m, CachePath: path,
		FaultPlan: &fault.Plan{Seed: 3, CacheBitflip: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chaotic.Run(blocks); err != nil {
		t.Fatal(err)
	}
	closeEngine(t, chaotic)

	// The chaotic engine recomputed every purged block at RungPrimary
	// and wrote the healthy schedules back behind; a later fault-free
	// engine must be served only schedules that pass verification.
	later, err := New(Config{Workers: 2, Model: m, Verify: true, CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer closeEngine(t, later)
	res, err := later.Run(blocks)
	if err != nil {
		t.Fatalf("post-purge run: %v", err)
	}
	if res.Stats.GateFailures != 0 {
		t.Errorf("post-purge run hit %d gate failures; purged entries were re-served", res.Stats.GateFailures)
	}
}

// TestDiskConfigRules pins the validation surface: CachePath implies
// Cache.
func TestDiskConfigRules(t *testing.T) {
	m := machine.Pipe1()
	e, err := New(Config{Model: m, CachePath: diskPath(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer closeEngine(t, e)
	if e.cache == nil {
		t.Error("CachePath did not imply Cache: no L1 was built")
	}
	if e.disk == nil {
		t.Error("CachePath did not open a disk tier")
	}
}

// TestDiskCloseIdempotent pins Close's contract: a second Close (and a
// Close on an engine without a disk tier) is a nil no-op, and a closed
// engine keeps scheduling — it just lost the persistent tier.
func TestDiskCloseIdempotent(t *testing.T) {
	m := machine.Pipe1()
	blocks := testBlocks(t, 10)

	plain, err := New(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Close(); err != nil {
		t.Errorf("Close without a disk tier: %v", err)
	}

	e, err := New(Config{Workers: 2, Model: m, CachePath: diskPath(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(blocks); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	res, err := e.Run(blocks)
	if err != nil {
		t.Fatalf("run after Close: %v", err)
	}
	if res.Stats.DiskHits != 0 {
		t.Errorf("closed engine reports %d disk hits", res.Stats.DiskHits)
	}
}

// TestDiskCorruptFileRecreated points an engine at a file full of
// garbage: the writable open must recover (here: recreate) rather than
// fail, and the run must come out correct.
func TestDiskCorruptFileRecreated(t *testing.T) {
	m := machine.Pipe1()
	blocks := testBlocks(t, 10)
	path := diskPath(t)
	if err := writeGarbageFile(path); err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Workers: 2, Model: m, Verify: true, CachePath: path})
	if err != nil {
		t.Fatalf("open over garbage: %v", err)
	}
	defer closeEngine(t, e)
	res, err := e.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DiskHits != 0 {
		t.Errorf("garbage file produced %d disk hits", res.Stats.DiskHits)
	}
}

func writeGarbageFile(path string) error {
	garbage := make([]byte, 8192)
	for i := range garbage {
		garbage[i] = byte(i*37 + 11)
	}
	return os.WriteFile(path, garbage, 0o644)
}
