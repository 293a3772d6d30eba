package resource

import (
	"testing"
	"testing/quick"

	"daginsched/internal/isa"
)

func TestClassOf(t *testing.T) {
	cases := []struct {
		m isa.MemExpr
		c StorageClass
	}{
		{isa.MemExpr{Base: isa.FP, Index: isa.RegNone, Offset: -8}, StackClass},
		{isa.MemExpr{Base: isa.SP, Index: isa.RegNone, Offset: 64}, StackClass},
		{isa.MemExpr{Base: isa.G0, Index: isa.RegNone, Sym: "_x"}, StaticClass},
		{isa.MemExpr{Base: isa.O2, Index: isa.RegNone, Offset: 4}, HeapClass},
	}
	for _, c := range cases {
		if got := ClassOf(c.m); got != c.c {
			t.Errorf("ClassOf(%v) = %v, want %v", c.m, got, c.c)
		}
	}
}

func TestRegIDsAreFixed(t *testing.T) {
	if RegID(isa.G1) != 1 || RegID(isa.FP) != 30 || RegID(isa.F(0)) != 32 ||
		RegID(isa.ICC) != 64 || RegID(isa.Y) != 66 {
		t.Fatal("register IDs must equal register numbers")
	}
}

func TestMemExprModelDistinctOffsets(t *testing.T) {
	tb := NewTable(MemExprModel)
	block := []isa.Inst{
		isa.Load(isa.LD, isa.FP, -8, isa.O0),
		isa.Load(isa.LD, isa.FP, -12, isa.O1),
		isa.Store(isa.ST, isa.O0, isa.FP, -8),
	}
	tb.PrepareBlock(block)
	a := tb.MemID(block[0].Mem)
	b := tb.MemID(block[1].Mem)
	c := tb.MemID(block[2].Mem)
	if a == b {
		t.Error("same base, different offsets must not share a resource")
	}
	if a != c {
		t.Error("identical expressions must share a resource")
	}
	if n := UniqueMemExprs(block); n != 2 {
		t.Errorf("UniqueMemExprs = %d, want 2", n)
	}
	if tb.NumResources() != NumFixed+2 {
		t.Errorf("NumResources = %d, want %d", tb.NumResources(), NumFixed+2)
	}
}

func TestMemExprModelStorageClassesDisjoint(t *testing.T) {
	tb := NewTable(MemExprModel)
	block := []isa.Inst{
		isa.Load(isa.LD, isa.FP, -8, isa.O0),
		isa.LoadSym(isa.LD, "_x", isa.G0, -8, isa.O1),
	}
	tb.PrepareBlock(block)
	if tb.MemID(block[0].Mem) == tb.MemID(block[1].Mem) {
		t.Error("stack and static expressions must not share a resource")
	}
}

func TestDirtyClassCollapses(t *testing.T) {
	tb := NewTable(MemExprModel)
	// %o2 is redefined in the block, so heap references via %o2 cannot
	// be disambiguated: the heap class must collapse.
	block := []isa.Inst{
		isa.Load(isa.LD, isa.O2, 0, isa.O3),
		isa.RIR(isa.ADD, isa.O2, 4, isa.O2),
		isa.Load(isa.LD, isa.O2, 8, isa.O4),
		isa.Load(isa.LD, isa.FP, -4, isa.O5), // stack stays clean
	}
	tb.PrepareBlock(block)
	a := tb.MemID(block[0].Mem)
	b := tb.MemID(block[2].Mem)
	s := tb.MemID(block[3].Mem)
	if a != b {
		t.Error("dirty heap class must serialize on one resource")
	}
	if a == s {
		t.Error("clean stack class must stay fine-grained")
	}
}

func TestIndexedAddressDirtiesClass(t *testing.T) {
	tb := NewTable(MemExprModel)
	block := []isa.Inst{
		{Op: isa.LD, RD: isa.O0, Mem: isa.MemExpr{Base: isa.O1, Index: isa.O2}},
		isa.Load(isa.LD, isa.O3, 16, isa.O4),
	}
	tb.PrepareBlock(block)
	if tb.MemID(block[0].Mem) != tb.MemID(block[1].Mem) {
		t.Error("register-indexed address must serialize its class")
	}
}

func TestMemSingleModel(t *testing.T) {
	tb := NewTable(MemSingleModel)
	block := []isa.Inst{
		isa.Load(isa.LD, isa.FP, -8, isa.O0),
		isa.LoadSym(isa.LD, "_x", isa.G0, 0, isa.O1),
	}
	tb.PrepareBlock(block)
	if tb.MemID(block[0].Mem) != tb.MemID(block[1].Mem) {
		t.Error("single model must map everything to one resource")
	}
	if tb.NumResources() != NumFixed+1 {
		t.Errorf("NumResources = %d", tb.NumResources())
	}
}

func TestMemClassModel(t *testing.T) {
	tb := NewTable(MemClassModel)
	block := []isa.Inst{
		isa.Load(isa.LD, isa.FP, -8, isa.O0),
		isa.Load(isa.LD, isa.FP, -12, isa.O1),
		isa.LoadSym(isa.LD, "_x", isa.G0, 0, isa.O2),
	}
	tb.PrepareBlock(block)
	a := tb.MemID(block[0].Mem)
	b := tb.MemID(block[1].Mem)
	c := tb.MemID(block[2].Mem)
	if a != b {
		t.Error("class model: same class must share a resource")
	}
	if a == c {
		t.Error("class model: different classes must not share")
	}
}

func TestPrepareBlockResets(t *testing.T) {
	tb := NewTable(MemExprModel)
	b1 := []isa.Inst{isa.Load(isa.LD, isa.FP, -8, isa.O0)}
	tb.PrepareBlock(b1)
	tb.MemID(b1[0].Mem)
	n1 := tb.NumResources()
	b2 := []isa.Inst{isa.Load(isa.LD, isa.FP, -99, isa.O0)}
	tb.PrepareBlock(b2)
	if tb.NumResources() != NumFixed {
		t.Errorf("PrepareBlock did not reset interning: %d", tb.NumResources())
	}
	tb.MemID(b2[0].Mem)
	if tb.NumResources() != n1 {
		t.Errorf("fresh block should re-use the ID space from %d", NumFixed)
	}
}

func TestRefID(t *testing.T) {
	tb := NewTable(MemExprModel)
	ld := isa.Load(isa.LD, isa.FP, -8, isa.O0)
	tb.PrepareBlock([]isa.Inst{ld})
	uses := ld.Uses()
	if tb.RefID(&ld, uses[0]) != RegID(isa.FP) {
		t.Error("register ref resolves to register ID")
	}
	if tb.RefID(&ld, uses[1]) < NumFixed {
		t.Error("memory ref must resolve above the fixed space")
	}

	// A double-word access names two memory words: Word 1 is the
	// expression 4 bytes on, its own resource under MemExprModel and
	// the same one under the coarser models.
	lddf := isa.Load(isa.LDDF, isa.FP, -16, isa.F(2))
	stdf := isa.Store(isa.STDF, isa.F(4), isa.SP, 64)
	for _, model := range []MemModel{MemExprModel, MemClassModel, MemSingleModel} {
		for _, c := range []struct {
			in   isa.Inst
			refs []isa.ResRef
		}{{lddf, lddf.Uses()}, {stdf, stdf.Defs()}} {
			tb := NewTable(model)
			tb.PrepareBlock([]isa.Inst{c.in})
			var words []isa.ResRef
			for _, r := range c.refs {
				if r.Kind == isa.RMem {
					words = append(words, r)
				}
			}
			if len(words) != 2 || words[0].Word != 0 || words[1].Word != 1 {
				t.Fatalf("%v: memory refs = %+v, want words 0 and 1", c.in.String(), words)
			}
			w0, w1 := tb.RefID(&c.in, words[0]), tb.RefID(&c.in, words[1])
			if w0 != tb.MemID(c.in.Mem) {
				t.Errorf("%v %v: word 0 = %d, want MemID(Mem) = %d", model, c.in.String(), w0, tb.MemID(c.in.Mem))
			}
			next := c.in.Mem
			next.Offset += 4
			if want := tb.MemID(next); w1 != want {
				t.Errorf("%v %v: word 1 = %d, want MemID(Mem+4) = %d", model, c.in.String(), w1, want)
			}
			if shared := model != MemExprModel; (w0 == w1) != shared {
				t.Errorf("%v %v: words share an ID = %v, want %v", model, c.in.String(), w0 == w1, shared)
			}
		}
	}
}

func TestUniqueMemExprs(t *testing.T) {
	a := isa.Load(isa.LD, isa.FP, -8, isa.O0)
	b := isa.Load(isa.LD, isa.FP, -12, isa.O0)
	c := isa.Load(isa.LD, isa.SP, -8, isa.O0)
	d := isa.LoadSym(isa.LD, "_x", isa.FP, -8, isa.O0)
	block := []isa.Inst{a, b, c, d}
	if n := UniqueMemExprs(block); n != 4 {
		t.Errorf("expected 4 distinct expressions, got %d", n)
	}
	a2 := isa.Store(isa.ST, isa.O1, isa.FP, -8)
	if n := UniqueMemExprs(append(block, a2, isa.RRR(isa.ADD, isa.O0, isa.O1, isa.O2))); n != 4 {
		t.Errorf("a repeated expression must add none: got %d", n)
	}
}

// Property: interning is a function — equal keys always produce equal
// IDs, distinct clean same-class expressions produce distinct IDs.
func TestQuickInterningConsistent(t *testing.T) {
	f := func(offs []int16) bool {
		tb := NewTable(MemExprModel)
		var block []isa.Inst
		for _, o := range offs {
			block = append(block, isa.Load(isa.LD, isa.FP, int32(o), isa.O0))
		}
		tb.PrepareBlock(block)
		byOff := map[int32]ID{}
		for i, o := range offs {
			word := int32(o) &^ 3 // resources are word-granular
			id := tb.MemID(block[i].Mem)
			if prev, ok := byOff[word]; ok && prev != id {
				return false
			}
			byOff[word] = id
		}
		ids := map[ID]bool{}
		for _, id := range byOff {
			if ids[id] {
				return false // two offsets shared an ID
			}
			ids[id] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModelString(t *testing.T) {
	if MemExprModel.String() != "expr" || MemClassModel.String() != "class" ||
		MemSingleModel.String() != "single" {
		t.Error("MemModel names wrong")
	}
	if StackClass.String() != "stack" || StaticClass.String() != "static" ||
		HeapClass.String() != "heap" {
		t.Error("StorageClass names wrong")
	}
}
