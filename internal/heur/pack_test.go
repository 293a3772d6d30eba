package heur

import (
	"math/bits"
	"slices"
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/synth"
	"daginsched/internal/testgen"
)

func packTestAnnot(t *testing.T, seed int64, n int) *Annot {
	t.Helper()
	m := machine.Pipe1()
	b := &block.Block{Name: "pack", Insts: testgen.Block(seed, n)}
	for i := range b.Insts {
		b.Insts[i].Index = i
	}
	rt := resource.NewTable(resource.MemExprModel)
	rt.PrepareBlock(b.Insts)
	d := dag.TableBackward{}.Build(b, m, rt)
	d.Freeze()
	a := New(d, m)
	a.ComputeFusedCSR()
	return a
}

// rankedCmp compares nodes i and j the way the winnow path would: +1
// when i wins, -1 when j wins.
func rankedCmp(a *Annot, i, j int) int {
	for _, k := range [][]int32{a.MaxPathToLeaf, a.MaxDelayToLeaf, a.SumDelayChild} {
		if k[i] != k[j] {
			if k[i] > k[j] {
				return 1
			}
			return -1
		}
	}
	if i < j {
		return 1
	}
	return -1
}

// checkPairwiseOrder requires that comparing two packed words as
// integers agrees with rankedCmp for every node pair.
func checkPairwiseOrder(t *testing.T, a *Annot) {
	t.Helper()
	n := a.D.Len()
	if len(a.PackedPrio) != n {
		t.Fatalf("PackedPrio covers %d nodes, want %d", len(a.PackedPrio), n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			want := rankedCmp(a, i, j)
			got := -1
			if a.PackedPrio[i] > a.PackedPrio[j] {
				got = 1
			} else if a.PackedPrio[i] == a.PackedPrio[j] {
				t.Fatalf("nodes %d and %d pack to equal words", i, j)
			}
			if got != want {
				t.Fatalf("packed order of (%d, %d) = %d, ranked comparison says %d", i, j, got, want)
			}
		}
	}
}

// TestPackSection6Order pins the tentpole invariant: comparing two
// packed words as integers is exactly the ranked lexicographic
// comparison (MaxPathToLeaf, MaxDelayToLeaf, SumDelayChild) with the
// min-node-index tiebreak, for every node pair.
func TestPackSection6Order(t *testing.T) {
	a := packTestAnnot(t, 11, 120)
	if !a.PrioExact {
		t.Fatal("packing inexact on an ordinary block")
	}
	checkPairwiseOrder(t, a)
}

// TestPackSection6Overflow drives the four per-block field widths to
// exactly 64 bits (exact) and then one bit past it, and checks that
// the packing declares itself inexact instead of truncating; negative
// fields must refuse at any width.
func TestPackSection6Overflow(t *testing.T) {
	a := packTestAnnot(t, 3, 30) // tiebreak width bits.Len(29) = 5
	clear(a.SumDelayChild)       // rank-3 width 0
	a.MaxPathToLeaf[2] = 1<<30 - 1
	a.MaxDelayToLeaf[4] = 1<<29 - 1 // 30 + 29 + 0 + 5 = 64 bits
	if !a.PackSection6Prio() || !a.PrioExact {
		t.Fatal("a 64-bit layout refused")
	}
	checkPairwiseOrder(t, a)
	a.MaxDelayToLeaf[4] = 1 << 29 // rank-2 width 30: 65 bits
	if a.PackSection6Prio() {
		t.Fatal("a 65-bit layout packed as exact")
	}
	if a.PrioExact {
		t.Fatal("PrioExact true after overflow")
	}
	a.MaxDelayToLeaf[4] = 1<<29 - 1
	a.SumDelayChild[7] = 1 // rank-3 width 1: 65 bits
	if a.PackSection6Prio() {
		t.Fatal("a 65-bit layout packed as exact")
	}
	b := packTestAnnot(t, 3, 30)
	b.MaxPathToLeaf[1] = 1 << 30
	b.MaxDelayToLeaf[1] = 1 << 30
	b.SumDelayChild[1] = 1 << 30 // 3×31 bits
	if b.PackSection6Prio() {
		t.Fatal("93 bits of fields packed as exact")
	}
	// Negative values must refuse in every field, however narrow.
	for field := 0; field < 3; field++ {
		c := packTestAnnot(t, 3, 30)
		[][]int32{c.MaxPathToLeaf, c.MaxDelayToLeaf, c.SumDelayChild}[field][4] = -1
		if c.PackSection6Prio() || c.PrioExact {
			t.Fatalf("negative field %d packed as exact", field)
		}
	}
}

// TestPackSection6WideField packs a field no fixed 14-bit budget
// could hold (fpppp's largest max delay to a leaf, 21,949) and checks
// the packing stays exact and keeps the pairwise ranked order.
func TestPackSection6WideField(t *testing.T) {
	a := packTestAnnot(t, 11, 120)
	a.MaxDelayToLeaf[17] = 21949
	a.MaxDelayToLeaf[40] = 21949 // a tie on rank 2, broken on rank 3 or index
	a.MaxPathToLeaf[40] = a.MaxPathToLeaf[17]
	if !a.PackSection6Prio() || !a.PrioExact {
		t.Fatal("a 15-bit field refused")
	}
	checkPairwiseOrder(t, a)
}

// TestPackSection6Fpppp packs fpppp's 11,750-instruction block — the
// only Table 3 block whose fields outgrow 14 bits — and checks the
// documented 12+15+9+14 = 50-bit layout and that the packed words sort
// the nodes exactly as the ranked comparison does.
func TestPackSection6Fpppp(t *testing.T) {
	p, _ := synth.ByName("fpppp")
	b := slices.MaxFunc(p.Generate(), func(x, y *block.Block) int { return x.Len() - y.Len() })
	m := machine.Pipe1()
	rt := resource.NewTable(resource.MemExprModel)
	rt.PrepareBlock(b.Insts)
	a := New(dag.TableBackward{}.Build(b, m, rt), m)
	a.ComputeFusedCSR()
	if !a.PrioExact {
		t.Fatal("fpppp's giant block packs inexact")
	}
	n := a.D.Len()
	widths := [4]int{
		bits.Len32(uint32(slices.Max(a.MaxPathToLeaf))),
		bits.Len32(uint32(slices.Max(a.MaxDelayToLeaf))),
		bits.Len32(uint32(slices.Max(a.SumDelayChild))),
		bits.Len(uint(n - 1)),
	}
	if n != 11750 || slices.Max(a.MaxDelayToLeaf) != 21949 || widths != [4]int{12, 15, 9, 14} {
		t.Fatalf("n=%d max delay to leaf %d widths %v; the layout comment is stale",
			n, slices.Max(a.MaxDelayToLeaf), widths)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return -rankedCmp(a, i, j) })
	for k := 1; k < n; k++ {
		if a.PackedPrio[order[k-1]] <= a.PackedPrio[order[k]] {
			t.Fatalf("ranked positions %d, %d (nodes %d, %d): packed words %#x, %#x not descending",
				k-1, k, order[k-1], order[k], a.PackedPrio[order[k-1]], a.PackedPrio[order[k]])
		}
	}
}

// TestPackInvalidatedByRecompute pins the staleness rule: any pass
// that rewrites a packed input clears PrioExact until the next pack.
func TestPackInvalidatedByRecompute(t *testing.T) {
	a := packTestAnnot(t, 7, 40)
	if !a.PrioExact {
		t.Fatal("packing inexact")
	}
	a.ComputeBackward()
	if a.PrioExact {
		t.Fatal("ComputeBackward left PrioExact set")
	}
	a.ComputeFusedCSR()
	if !a.PrioExact {
		t.Fatal("ComputeFusedCSR did not re-pack")
	}
	a.ComputeLocal()
	if a.PrioExact {
		t.Fatal("ComputeLocal left PrioExact set")
	}
}

// TestFusedCSRPackedArcsMatch runs the fused sweep over the packed arc
// records and checks every output annotation matches the unfused
// passes' walk over the arc lists.
func TestFusedCSRPackedArcsMatch(t *testing.T) {
	a := packTestAnnot(t, 19, 150) // packed layout (block well under limits)
	b := packTestAnnot(t, 19, 150)
	// Rebuild b's annotations through the unfused arc-list passes.
	b.ComputeBackward()
	b.ComputeLocal()
	for i := 0; i < a.D.Len(); i++ {
		if a.MaxPathToLeaf[i] != b.MaxPathToLeaf[i] ||
			a.MaxDelayToLeaf[i] != b.MaxDelayToLeaf[i] ||
			a.SumDelayChild[i] != b.SumDelayChild[i] ||
			a.InterlockChild[i] != b.InterlockChild[i] {
			t.Fatalf("node %d: packed-arc sweep diverges from unfused passes", i)
		}
	}
}
