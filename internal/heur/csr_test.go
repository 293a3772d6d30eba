package heur

import (
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/testgen"
)

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestComputeFusedCSRMatchesObserver checks the CSR single-walk fused
// pass against the construction-fused observer: every annotation both
// fill must be identical, and every ComputeAll pass must give the same
// values on the frozen DAG as on an unfrozen twin.
func TestComputeFusedCSRMatchesObserver(t *testing.T) {
	m := machine.Pipe1()
	for _, n := range []int{0, 1, 13, 90, 250} {
		b := &block.Block{Name: "t", Insts: testgen.Block(int64(40+n), n)}
		for i := range b.Insts {
			b.Insts[i].Index = i
		}

		// Reference: backward table building with the fused observer.
		rt := resource.NewTable(resource.MemExprModel)
		rt.PrepareBlock(b.Insts)
		ref := New(nil, m)
		obs := &FusedBackward{A: ref, ComputeLocals: true}
		dag.TableBackward{Observer: obs}.Build(b, m, rt)

		// CSR: plain build, freeze, one flat reverse walk.
		rt2 := resource.NewTable(resource.MemExprModel)
		rt2.PrepareBlock(b.Insts)
		d := dag.TableBackward{}.Build(b, m, rt2)
		a := New(d, m)
		a.ComputeFusedCSR()

		if !int32sEqual(a.MaxPathToLeaf, ref.MaxPathToLeaf) ||
			!int32sEqual(a.MaxDelayToLeaf, ref.MaxDelayToLeaf) ||
			!int32sEqual(a.ExecTime, ref.ExecTime) ||
			!int32sEqual(a.SumDelayChild, ref.SumDelayChild) ||
			!int32sEqual(a.MaxDelayChild, ref.MaxDelayChild) {
			t.Fatalf("n=%d: fused CSR annotations diverge from observer", n)
		}
		for i := range a.InterlockChild {
			if a.InterlockChild[i] != ref.InterlockChild[i] {
				t.Fatalf("n=%d: InterlockChild[%d] diverges", n, i)
			}
		}

		// Full passes, frozen vs unfrozen layout.
		rt3 := resource.NewTable(resource.MemExprModel)
		rt3.PrepareBlock(b.Insts)
		plain := New(dag.TableBackward{}.Build(b, m, rt3), m)
		plain.ComputeAll()
		frozen := New(d, m)
		frozen.ComputeAll()
		for _, pair := range [][2][]int32{
			{plain.SumDelayChild, frozen.SumDelayChild},
			{plain.MaxDelayChild, frozen.MaxDelayChild},
			{plain.SumDelayParent, frozen.SumDelayParent},
			{plain.MaxDelayParent, frozen.MaxDelayParent},
			{plain.EST, frozen.EST},
			{plain.MaxPathFromRoot, frozen.MaxPathFromRoot},
			{plain.MaxDelayFromRoot, frozen.MaxDelayFromRoot},
			{plain.MaxPathToLeaf, frozen.MaxPathToLeaf},
			{plain.MaxDelayToLeaf, frozen.MaxDelayToLeaf},
			{plain.LST, frozen.LST},
			{plain.Slack, frozen.Slack},
		} {
			if !int32sEqual(pair[0], pair[1]) {
				t.Fatalf("n=%d: ComputeAll diverges between layouts", n)
			}
		}
	}
}
