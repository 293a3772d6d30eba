package tables

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"daginsched/internal/dag"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/sched"
)

// table2ScheduleDigest is the FNV-64a digest of every schedule
// TestTable2ScheduleDigest produces. Any change to construction,
// freezing, the heuristic passes or the schedulers that moves one issue
// cycle of one block changes it; only a change meant to alter schedules
// may record a new value.
const table2ScheduleDigest = 0x70472faf594cabb2

// TestTable2ScheduleDigest pins the schedules of the Table 2 study: every
// Table 2 algorithm plus SchlanskerVLIW, each on a DAG from its own
// Builder, and ReservationDefault on the TableForward DAG, over the
// -quality benchmark sets (Table 3 minus the unwindowed and the 2000-
// and 4000-windowed fpppp) on Pipe1 and Super2. Order, Issue and Cycles
// of every schedule feed one digest.
func TestTable2ScheduleDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules every -quality block eight ways on two machines")
	}
	if raceEnabled {
		t.Skip("single-goroutine; too slow under the race detector")
	}
	var sets []BenchmarkSet
	for _, s := range Table3Sets() {
		if s.Name != "fpppp" && s.Name != "fpppp-2000" && s.Name != "fpppp-4000" {
			sets = append(sets, s)
		}
	}
	algos := append(sched.Table2(), sched.SchlanskerVLIW())
	h := fnv.New64a()
	blocks := 0
	for _, m := range []*machine.Model{machine.Pipe1(), machine.Super2()} {
		for _, set := range sets {
			rt := resource.NewTable(resource.MemExprModel)
			for _, blk := range set.Blocks {
				rt.PrepareBlock(blk.Insts)
				for _, al := range algos {
					digestResult(h, al.Run(al.Builder().Build(blk, m, rt), m))
				}
				digestResult(h, sched.ReservationDefault(dag.TableForward{}.Build(blk, m, rt), m))
				blocks++
			}
		}
	}
	if got := h.Sum64(); got != table2ScheduleDigest {
		t.Errorf("schedule digest over %d blocks = %#x, want %#x", blocks, got, uint64(table2ScheduleDigest))
	}
}

// digestResult feeds one schedule's order, issue cycles and length to h.
func digestResult(h hash.Hash64, r *sched.Result) {
	var w [4]byte
	put := func(v int32) {
		binary.LittleEndian.PutUint32(w[:], uint32(v))
		h.Write(w[:])
	}
	put(int32(len(r.Order)))
	for _, v := range r.Order {
		put(v)
	}
	for _, v := range r.Issue {
		put(v)
	}
	put(r.Cycles)
}
