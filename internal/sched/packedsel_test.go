package sched

import (
	"math/rand"
	"testing"

	"daginsched/internal/dag"
	"daginsched/internal/heur"
	"daginsched/internal/isa"
	"daginsched/internal/machine"
	"daginsched/internal/testgen"
)

// noFastPath hides a selector's ranking (Keys() == nil), so the
// packed-priority heap is suppressed and picks run the plain winnowing
// rescan. It is the reference arm of the differential tests.
type noFastPath struct{ sel Selector }

func (n noFastPath) Pick(s *State, cands []int32) int32 { return n.sel.Pick(s, cands) }
func (n noFastPath) Keys() []RankedKey                  { return nil }

// packedSelInsts builds a test block; every other seed gets a trailing
// branch, so both pick loops also run blocks whose CTI they place last
// outside the ready list.
func packedSelInsts(seed int64, n int) []isa.Inst {
	insts := testgen.Block(seed, n)
	if seed%2 == 0 {
		insts = append(insts, isa.Branch(isa.BA, "out"))
		for i := range insts {
			insts[i].Index = i
		}
	}
	return insts
}

func sameSchedule(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if len(got.Order) != len(want.Order) || got.Cycles != want.Cycles {
		t.Fatalf("%s: schedule shape diverges: %d nodes/%d cycles vs %d/%d",
			ctx, len(got.Order), got.Cycles, len(want.Order), want.Cycles)
	}
	for i := range want.Order {
		if got.Order[i] != want.Order[i] {
			t.Fatalf("%s: Order[%d] = %d, want %d (got %v want %v)",
				ctx, i, got.Order[i], want.Order[i], got.Order, want.Order)
		}
	}
	for i := range want.Issue {
		if got.Issue[i] != want.Issue[i] {
			t.Fatalf("%s: Issue[%d] = %d, want %d", ctx, i, got.Issue[i], want.Issue[i])
		}
	}
}

// TestPackedSelMatchesWinnowSection6 is the tentpole identity property:
// on the engine's default Section 6 ranking, the packed-priority heap
// pick loop produces schedules byte-identical to the plain winnowing
// rescan, across block sizes, machine models and blocks with and
// without a block-ending CTI.
func TestPackedSelMatchesWinnowSection6(t *testing.T) {
	models := []*machine.Model{machine.Pipe1(), machine.FPU(), machine.Asym(), machine.Super2()}
	var heapSc Scratch
	for seed := int64(0); seed < 12; seed++ {
		for _, n := range []int{1, 2, 7, 40, 150} {
			insts := packedSelInsts(seed, n)
			for _, m := range models {
				d := buildDAG(t, dag.TableBackward{}, m, insts)
				d.Freeze()
				a := heur.New(d, m)
				a.ComputeFusedCSR()
				if !a.PrioExact {
					t.Fatalf("seed %d n %d: fused sweep left no exact packing", seed, n)
				}
				ref := Forward(d, m, a, noFastPath{Winnow(Section6Ranked())})
				hr := heapSc.Forward(d, m, a, Winnow(Section6Ranked()))
				if !heapSc.UsedPacked() {
					t.Fatalf("seed %d n %d %s: heap path not taken", seed, n, m.Name)
				}
				sameSchedule(t, "heap vs winnow", hr, ref)
				// The package-level Forward must auto-select the heap path
				// and still match.
				sameSchedule(t, "auto vs winnow", Forward(d, m, a, Winnow(Section6Ranked())), ref)
			}
		}
	}
}

// TestPackedSelMatchesWinnowTable2 runs every Table 2 ranking in its
// published direction, comparing the selector as the schedulers see it
// (the heap when its ranking packs) against the plain winnowing rescan.
func TestPackedSelMatchesWinnowTable2(t *testing.T) {
	m := machine.Pipe1()
	for _, al := range Table2() {
		for seed := int64(0); seed < 8; seed++ {
			insts := packedSelInsts(seed, 35)
			d := buildDAG(t, al.Builder(), m, insts)
			d.Freeze()
			a := heur.New(d, m)
			prepareAnnot(a, al.Ranked)
			run := func(sel Selector) *Result {
				if al.SchedDir == dag.Backward {
					return Backward(d, m, a, sel)
				}
				return Forward(d, m, a, sel)
			}
			ref := run(noFastPath{Winnow(al.Ranked)})
			sameSchedule(t, al.Name, run(Winnow(al.Ranked)), ref)
		}
	}
}

// TestPackedPrioForGating pins when the heap path may engage: only an
// exact packing with the exact packed ranking, all Max direction.
func TestPackedPrioForGating(t *testing.T) {
	m := machine.Pipe1()
	d := buildDAG(t, dag.TableBackward{}, m, testgen.Block(3, 25))
	d.Freeze()
	a := heur.New(d, m)
	a.ComputeFusedCSR()
	s := newState(d, m, a)
	if packedPrioFor(s, Winnow(Section6Ranked())) == nil {
		t.Fatal("exact packing with the packed ranking rejected")
	}
	if packedPrioFor(s, noFastPath{Winnow(Section6Ranked())}) != nil {
		t.Fatal("hidden ranking accepted")
	}
	wrongDir := Section6Ranked()
	wrongDir[1].Min = true
	if packedPrioFor(s, Winnow(wrongDir)) != nil {
		t.Fatal("Min-direction key accepted")
	}
	if packedPrioFor(s, Winnow(Section6Ranked()[:2])) != nil {
		t.Fatal("truncated ranking accepted")
	}
	a.PrioExact = false
	if packedPrioFor(s, Winnow(Section6Ranked())) != nil {
		t.Fatal("inexact packing accepted")
	}
	sNoA := newState(d, m, nil)
	if packedPrioFor(sNoA, Winnow(Section6Ranked())) != nil {
		t.Fatal("nil annotation accepted")
	}
}

// TestReadyHeapProperty drives the heap through a lazily admitted
// batch (admitLazy, heapify) followed by a random admit/pick sequence,
// against a naive linear-scan reference.
func TestReadyHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 200
	var h readyHeap
	for round := 0; round < 20; round++ {
		h.reset()
		ref := map[int32]uint64{}
		key := func(i int32) uint64 {
			// Deliberately collide high bits; low bits keep words unique.
			return uint64(rng.Intn(8))<<32 | uint64(n-i)
		}
		for i := int32(rng.Intn(4)); i < n; i += int32(1 + rng.Intn(8)) {
			k := key(i)
			ref[i] = k
			h.admitLazy(i, k)
		}
		h.heapify()
		for step := 0; step < 600; step++ {
			if rng.Intn(2) == 0 || len(ref) == 0 { // admit a node not present
				i := int32(rng.Intn(n))
				if _, ok := ref[i]; ok {
					continue
				}
				k := key(i)
				ref[i] = k
				h.admit(i, k)
			} else { // pickMax must equal the reference max
				var want int32 = -1
				var wantK uint64
				for i, k := range ref {
					if want < 0 || k > wantK {
						want, wantK = i, k
					}
				}
				if got := h.pickMax(); got != want {
					t.Fatalf("round %d step %d: pickMax = %d, want %d", round, step, got, want)
				}
				delete(ref, want)
			}
			if len(h.key) != len(ref) || len(h.node) != len(ref) {
				t.Fatalf("round %d step %d: heap len %d/%d, reference %d",
					round, step, len(h.key), len(h.node), len(ref))
			}
		}
		// Drain: picks must come out in strictly descending key order.
		var last uint64
		for first := true; len(h.key) > 0; first = false {
			i := h.pickMax()
			k := ref[i]
			if !first && k >= last {
				t.Fatalf("drain out of order: %d after %d", k, last)
			}
			last = k
			delete(ref, i)
		}
	}
}

// TestScratchForwardPackedZeroAlloc pins the steady-state guarantee on
// the heap pick loop.
func TestScratchForwardPackedZeroAlloc(t *testing.T) {
	m := machine.Pipe1()
	d := buildDAG(t, dag.TableBackward{}, m, packedSelInsts(4, 120))
	d.Freeze()
	a := heur.New(d, m)
	a.ComputeFusedCSR()
	var sc Scratch
	var sel Selector = Winnow(Section6Ranked())
	sc.Forward(d, m, a, sel) // warm the scratch capacity
	if !sc.UsedPacked() {
		t.Fatal("heap path not taken")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		sc.Forward(d, m, a, sel)
	}); allocs != 0 {
		t.Errorf("packed Forward allocates %.1f/op, want 0", allocs)
	}
}

// TestScratchForwardWinnowZeroAlloc pins the same guarantee on the
// winnowing pick loop: the survivor buffers live in the Scratch's
// State, so a warm Scratch winnows without allocating.
func TestScratchForwardWinnowZeroAlloc(t *testing.T) {
	m := machine.Pipe1()
	d := buildDAG(t, dag.TableBackward{}, m, packedSelInsts(4, 120))
	d.Freeze()
	a := heur.New(d, m)
	a.ComputeFusedCSR()
	var sc Scratch
	var sel Selector = noFastPath{Winnow(Section6Ranked())}
	sc.Forward(d, m, a, sel) // warm the scratch capacity
	if sc.UsedPacked() {
		t.Fatal("keyless selector took the heap path")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		sc.Forward(d, m, a, sel)
	}); allocs != 0 {
		t.Errorf("winnowing Forward allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkForwardPackedSel measures the packed-priority heap loop
// against the winnowing rescan it replaces, on the engine's default
// ranking.
func BenchmarkForwardPackedSel(b *testing.B) {
	m := machine.Pipe1()
	insts := testgen.Block(4242, 300)
	d := buildDAG(b, dag.TableBackward{}, m, insts)
	d.Freeze()
	a := heur.New(d, m)
	a.ComputeFusedCSR()
	var sel Selector = Winnow(Section6Ranked())
	b.Run("heap", func(b *testing.B) {
		var sc Scratch
		sc.Forward(d, m, a, sel)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc.Forward(d, m, a, sel)
		}
	})
	b.Run("winnow", func(b *testing.B) {
		var sc Scratch
		var ref Selector = noFastPath{Winnow(Section6Ranked())}
		sc.Forward(d, m, a, ref)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc.Forward(d, m, a, ref)
		}
	})
}
