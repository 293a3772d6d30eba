package main

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"

	"daginsched/internal/block"
	"daginsched/internal/machine"
	"daginsched/internal/pipe"
	"daginsched/internal/resource"
	"daginsched/internal/sched"
	"daginsched/internal/verify"
)

// oracleTrials is how many random initial states the interpreter check
// runs each schedule from.
const oracleTrials = 1

// oracle checks the program's schedules with code that shares nothing
// with the engine's scheduling path, always outside the timed windows:
//
//   - completeness: the order is a permutation of the block;
//   - pipe.Simulate re-times the order on the scoreboard simulator,
//     which never consults a DAG, and must reproduce the cycle count the
//     program reported;
//   - verify.Schedule rebuilds the DAG with the forward table builder
//     (the engine builds backward) and checks every arc is respected,
//     in order and by the simulated issue cycles, that no cycle issues
//     more than the machine's width, and that the interp interpreter
//     ends in the same state running the schedule as running program
//     order.
//
// The blocks checked are the ones the benchmark generated, not the
// ones the program parsed, so a parsing fault shows up too.
//
// A block that repeats (the cache workloads) is fully checked the first
// time a given schedule is seen for it; a later schedule for the same
// block that is byte-identical, with the same cycle count, inherits
// that verdict, since the check is a pure function of both. Any other
// schedule is checked in full.
type oracle struct {
	model   *machine.Model
	mem     resource.MemModel
	workers int

	mu       sync.Mutex
	proven   map[blockID]uint64 // schedule digest already proven for a repeated block
	firstErr error

	checked, reused, failed atomic.Int64
}

// blockID names a repeated block; the zero value marks a block that is
// never seen twice.
type blockID struct {
	set   int32 // 1-based corpus set (0: unnamed)
	unit  int32
	index int32
}

// job is one schedule to check.
type job struct {
	id     blockID
	b      *block.Block
	order  []int32
	cycles int32
	bad    bool // set by check when the schedule fails
}

func newOracle(m *machine.Model, workers int) *oracle {
	return &oracle{model: m, mem: resource.MemExprModel, workers: max(1, workers), proven: map[blockID]uint64{}}
}

// check runs every job on the oracle's worker pool and returns how many
// failed.
func (o *oracle) check(jobs []job) int64 {
	var failed atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if !o.one(&jobs[i]) {
					jobs[i].bad = true
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	o.failed.Add(failed.Load())
	return failed.Load()
}

// one checks a single job, reusing a proven verdict when it applies.
func (o *oracle) one(j *job) bool {
	var sum uint64
	if j.id != (blockID{}) {
		sum = scheduleDigest(j.order, j.cycles)
		o.mu.Lock()
		prev, ok := o.proven[j.id]
		o.mu.Unlock()
		if ok && prev == sum {
			o.reused.Add(1)
			return true
		}
	}
	o.checked.Add(1)
	if err := o.verify(j); err != nil {
		o.mu.Lock()
		if o.firstErr == nil {
			o.firstErr = fmt.Errorf("block %s (%d insts): %w", j.b.Name, j.b.Len(), err)
		}
		o.mu.Unlock()
		return false
	}
	if j.id != (blockID{}) {
		o.mu.Lock()
		o.proven[j.id] = sum
		o.mu.Unlock()
	}
	return true
}

// verify runs the independent checks on one schedule. A panic inside a
// checker is reported as a failed check, not a crashed benchmark.
func (o *oracle) verify(j *job) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("oracle panicked: %v", p)
		}
	}()
	n := j.b.Len()
	if len(j.order) != n {
		return fmt.Errorf("completeness: order has %d of %d instructions", len(j.order), n)
	}
	seen := make([]bool, n)
	for _, v := range j.order {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("completeness: node %d repeated or out of range", v)
		}
		seen[v] = true
	}
	rt := resource.NewTable(o.mem)
	rt.PrepareBlock(j.b.Insts)
	sim := pipe.Simulate(j.b.Insts, j.order, o.model, rt)
	if sim.Cycles != j.cycles {
		return fmt.Errorf("timing: simulator completes in %d cycles, program reported %d", sim.Cycles, j.cycles)
	}
	issue := make([]int32, n)
	for pos, node := range j.order {
		issue[node] = sim.Issue[pos]
	}
	r := &sched.Result{Order: j.order, Issue: issue, Cycles: sim.Cycles}
	return verify.Schedule(j.b, o.model, r, o.mem, oracleTrials)
}

// err returns the first failure seen, if any.
func (o *oracle) err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.firstErr
}

// scheduleDigest hashes one schedule.
func scheduleDigest(order []int32, cycles int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(v int32) {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	put(cycles)
	for _, v := range order {
		put(v)
	}
	return h.Sum64()
}

// refTally accumulates the reference-set outputs: the schedules the
// program produced for the workload's fixed first-pass blocks. Their
// cycle sum is sched_cycles and their digest the determinism witness.
type refTally struct {
	seen map[blockID]refEntry
}

type refEntry struct {
	cycles  int32
	digest  uint64
	primary bool
}

func newRefTally() *refTally { return &refTally{seen: map[blockID]refEntry{}} }

// add records a reference block's schedule. The first primary schedule
// wins; a degraded one (served below the engine's primary rung after a
// deadline miss) stands in only until a primary one is seen, so a
// transient miss does not move the figures.
func (t *refTally) add(id blockID, order []int32, cycles int32, primary bool) {
	if e, ok := t.seen[id]; ok && (e.primary || !primary) {
		return
	}
	t.seen[id] = refEntry{cycles: cycles, digest: scheduleDigest(order, cycles), primary: primary}
}

// sum is sched_cycles: the total schedule length of the reference set.
func (t *refTally) sum() int64 {
	var s int64
	for _, e := range t.seen {
		s += int64(e.cycles)
	}
	return s
}

// fingerprint folds every reference schedule, in block order, into one
// digest: two runs of one seed must agree on it.
func (t *refTally) fingerprint() uint64 {
	ids := make([]blockID, 0, len(t.seen))
	for id := range t.seen {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b blockID) int {
		return cmp.Or(cmp.Compare(a.set, b.set), cmp.Compare(a.unit, b.unit), cmp.Compare(a.index, b.index))
	})
	h := fnv.New64a()
	var b [8]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(b[:], t.seen[id].digest)
		h.Write(b[:])
	}
	return h.Sum64()
}
