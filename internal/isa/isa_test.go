package isa

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// refs renders in's references, each memory reference with the
// expression it names.
func refs(in *Inst, rs []ResRef) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.String()
		if r.Kind == RMem {
			out[i] += in.RefMem(r).String()
		}
	}
	return out
}

func eqStrings(a, b []string) bool {
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

func TestRegNames(t *testing.T) {
	cases := []struct {
		r    Reg
		name string
	}{
		{G0, "%g0"}, {O7, "%o7"}, {SP, "%sp"}, {FP, "%fp"},
		{L3, "%l3"}, {I5, "%i5"}, {F(0), "%f0"}, {F(31), "%f31"},
		{ICC, "%icc"}, {FCC, "%fcc"}, {Y, "%y"},
	}
	for _, c := range cases {
		if c.r.String() != c.name {
			t.Errorf("Reg(%d).String() = %q, want %q", c.r, c.r.String(), c.name)
		}
		got, err := ParseReg(c.name)
		if err != nil || got != c.r {
			t.Errorf("ParseReg(%q) = %v, %v; want %v", c.name, got, err, c.r)
		}
	}
}

func TestParseRegAliases(t *testing.T) {
	if r, err := ParseReg("%o6"); err != nil || r != SP {
		t.Error("o6 should parse as sp")
	}
	if r, err := ParseReg("%i6"); err != nil || r != FP {
		t.Error("i6 should parse as fp")
	}
	if r, err := ParseReg("%r17"); err != nil || r != L1 {
		t.Errorf("%%r17 should parse as %%l1, got %v %v", r, err)
	}
	if _, err := ParseReg("%f32"); err == nil {
		t.Error("f32 should not parse")
	}
	if _, err := ParseReg("bogus"); err == nil {
		t.Error("bogus register should not parse")
	}
}

func TestParseRegRoundTripQuick(t *testing.T) {
	f := func(n uint8) bool {
		r := Reg(n)
		if r == RegNone || (r > Y && r != RegNone) {
			return true // not a nameable register
		}
		if r >= 64 && r != ICC && r != FCC && r != Y {
			return true
		}
		got, err := ParseReg(r.String())
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestParseRegCanonical pins ParseReg's accept set: every register's
// String round-trips, the aliases parse, non-canonical spellings are
// rejected, and over every short string of register-shaped bytes it
// agrees with the fmt round trip (parse "%f%d", print it back, compare)
// that first defined the set.
func TestParseRegCanonical(t *testing.T) {
	for r := G0; r <= Y; r++ {
		if got, err := ParseReg(r.String()); err != nil || got != r {
			t.Errorf("ParseReg(%q) = %v, %v; want %v", r.String(), got, err, r)
		}
	}
	aliases := map[string]Reg{"%sp": SP, "%o6": SP, "%fp": FP, "%i6": FP,
		"%icc": ICC, "%fcc": FCC, "%y": Y, "%r0": G0, "%r14": SP, "%r31": I7}
	for s, want := range aliases {
		if got, err := ParseReg(s); err != nil || got != want {
			t.Errorf("ParseReg(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"%f01", "%f032", "%f+1", "%f 1", "%f32", "%r32",
		"%g8", "%o8", "%F1", "%", "", "f1", "%f-0", "%r00", "%xcc", "%y0", "%f1 "} {
		r, err := ParseReg(s)
		if err == nil {
			t.Errorf("ParseReg(%q) = %v, want an error", s, r)
		} else if want := fmt.Sprintf("isa: unknown register %q", s); err.Error() != want {
			t.Errorf("ParseReg(%q) error %q, want %q", s, err, want)
		}
	}

	const alphabet = "%fgrilosp0123456789ycx+- "
	var buf [4]byte
	var walk func(n int)
	checked := 0
	walk = func(n int) {
		s := string(buf[:n])
		want, wantOK := parseRegRoundTrip(s)
		got, err := ParseReg(s)
		if (err == nil) != wantOK || got != want {
			t.Fatalf("ParseReg(%q) = %v, %v; the fmt round trip gives %v, %v", s, got, err, want, wantOK)
		}
		checked++
		if n == len(buf) {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			buf[n] = alphabet[i]
			walk(n + 1)
		}
	}
	walk(0)
	if checked != 406901 {
		t.Fatalf("checked %d strings, want 406901", checked)
	}
}

// TestRegByNameBytes: the byte-slice form of RegByName, which the
// assembler calls on its line buffer, agrees with the string form and
// does not allocate.
func TestRegByNameBytes(t *testing.T) {
	names := []string{"%f01", "%f31", "%r7", "%sp", "%o6", "%icc", "%y", "%", "%g8", "%i7"}
	for _, s := range names {
		want, wantOK := RegByName(s)
		if got, ok := RegByName([]byte(s)); got != want || ok != wantOK {
			t.Errorf("RegByName([]byte %q) = %v, %v; string form %v, %v", s, got, ok, want, wantOK)
		}
	}
	b := []byte("%f17")
	if n := testing.AllocsPerRun(100, func() { RegByName(b) }); n != 0 {
		t.Errorf("RegByName allocates %v times per call", n)
	}
}

// parseRegRoundTrip is the accept set ParseReg was first written with:
// an exact integer name or alias, or %f<n> / %r<n> whose fmt.Sscanf
// parse prints back to the same text.
func parseRegRoundTrip(s string) (Reg, bool) {
	for i := G0; i <= I7; i++ {
		if s == i.String() {
			return i, true
		}
	}
	switch s {
	case "%o6":
		return SP, true
	case "%i6":
		return FP, true
	case "%icc":
		return ICC, true
	case "%fcc":
		return FCC, true
	case "%y":
		return Y, true
	}
	var n int
	if _, err := fmt.Sscanf(s, "%%f%d", &n); err == nil && n >= 0 && n < 32 && fmt.Sprintf("%%f%d", n) == s {
		return F(n), true
	}
	if _, err := fmt.Sscanf(s, "%%r%d", &n); err == nil && n >= 0 && n < 32 && fmt.Sprintf("%%r%d", n) == s {
		return R(n), true
	}
	return RegNone, false
}

func TestRegPredicates(t *testing.T) {
	if !G5.IsInt() || G5.IsFP() || G5.IsCC() {
		t.Error("G5 predicates wrong")
	}
	if F(4).IsInt() || !F(4).IsFP() {
		t.Error("F4 predicates wrong")
	}
	if !ICC.IsCC() || !FCC.IsCC() || G1.IsCC() {
		t.Error("CC predicates wrong")
	}
	if F(7).FPNum() != 7 {
		t.Error("FPNum wrong")
	}
}

func TestOpcodeTableComplete(t *testing.T) {
	for op := 0; op < NumOpcodes; op++ {
		if opTable[op].name == "" {
			t.Errorf("opcode %d has no table entry", op)
		}
	}
	seen := map[string]Opcode{}
	for op := 0; op < NumOpcodes; op++ {
		n := opTable[op].name
		if prev, dup := seen[n]; dup {
			t.Errorf("mnemonic %q used by both %d and %d", n, prev, op)
		}
		seen[n] = Opcode(op)
	}
}

func TestOpcodeByName(t *testing.T) {
	for op := 0; op < NumOpcodes; op++ {
		got, ok := OpcodeByName(Opcode(op).String())
		if !ok || got != Opcode(op) {
			t.Errorf("OpcodeByName(%q) = %v, %v", Opcode(op).String(), got, ok)
		}
	}
	if _, ok := OpcodeByName("frobnicate"); ok {
		t.Error("unknown mnemonic resolved")
	}
}

func TestClassAssignments(t *testing.T) {
	cases := []struct {
		op Opcode
		c  Class
	}{
		{ADD, ClassIU}, {SMUL, ClassMul}, {LD, ClassLoad}, {ST, ClassStore},
		{FADDD, ClassFPA}, {FMULD, ClassFPM}, {FDIVD, ClassFPD}, {FSQRTD, ClassFPD},
		{BNE, ClassBranch}, {CALL, ClassCall}, {SAVE, ClassWindow}, {NOP, ClassMisc},
	}
	for _, c := range cases {
		if c.op.Class() != c.c {
			t.Errorf("%v.Class() = %v, want %v", c.op, c.op.Class(), c.c)
		}
	}
	if !ClassFPD.IsFP() || ClassIU.IsFP() {
		t.Error("Class.IsFP wrong")
	}
	if !ClassBranch.IsCTI() || !ClassCall.IsCTI() || ClassLoad.IsCTI() {
		t.Error("Class.IsCTI wrong")
	}
}

func TestEndsBlock(t *testing.T) {
	for _, op := range []Opcode{BA, BNE, FBE, CALL, JMPL, RET, RETL, SAVE, RESTORE} {
		if !op.EndsBlock() {
			t.Errorf("%v should end a block", op)
		}
	}
	for _, op := range []Opcode{ADD, LD, ST, FDIVD, NOP, CMP} {
		if op.EndsBlock() {
			t.Errorf("%v should not end a block", op)
		}
	}
}

func TestDefUseALU(t *testing.T) {
	in := RRR(ADD, G1, G2, G3)
	if !eqStrings(refs(&in, in.Uses()), []string{"%g1", "%g2"}) {
		t.Errorf("add uses = %v", refs(&in, in.Uses()))
	}
	if !eqStrings(refs(&in, in.Defs()), []string{"%g3"}) {
		t.Errorf("add defs = %v", refs(&in, in.Defs()))
	}
}

func TestDefUseImmediate(t *testing.T) {
	in := RIR(ADD, G1, 4, G3)
	if !eqStrings(refs(&in, in.Uses()), []string{"%g1"}) {
		t.Errorf("add-imm uses = %v", refs(&in, in.Uses()))
	}
}

func TestG0NeverAResource(t *testing.T) {
	in := RRR(ADD, G0, G0, G0)
	if len(in.Uses()) != 0 || len(in.Defs()) != 0 {
		t.Errorf("adds through %%g0 should have no resources: uses=%v defs=%v",
			refs(&in, in.Uses()), refs(&in, in.Defs()))
	}
	cmp := Cmp(G1, G2) // rd is %g0 but cc is defined
	if !eqStrings(refs(&cmp, cmp.Defs()), []string{"%icc"}) {
		t.Errorf("cmp defs = %v", refs(&cmp, cmp.Defs()))
	}
}

func TestDefUseLoad(t *testing.T) {
	in := Load(LD, FP, -8, O0)
	uses := refs(&in, in.Uses())
	if !eqStrings(uses, []string{"%fp", "mem[%fp-8]"}) {
		t.Errorf("ld uses = %v", uses)
	}
	if !eqStrings(refs(&in, in.Defs()), []string{"%o0"}) {
		t.Errorf("ld defs = %v", refs(&in, in.Defs()))
	}
}

func TestDefUseStore(t *testing.T) {
	in := Store(ST, O0, FP, -8)
	if !eqStrings(refs(&in, in.Uses()), []string{"%o0", "%fp"}) {
		t.Errorf("st uses = %v", refs(&in, in.Uses()))
	}
	if !eqStrings(refs(&in, in.Defs()), []string{"mem[%fp-8]"}) {
		t.Errorf("st defs = %v", refs(&in, in.Defs()))
	}
}

func TestDefUsePairLoad(t *testing.T) {
	in := Load(LDDF, SP, 16, F(2))
	defs := refs(&in, in.Defs())
	if !eqStrings(defs, []string{"%f2", "%f3"}) {
		t.Errorf("lddf defs = %v; pair must define both halves", defs)
	}
	if !in.Defs()[1].PairSecond {
		t.Error("PairSecond should mark f3")
	}
	if in.Defs()[0].PairSecond {
		t.Error("PairSecond marks f2")
	}
}

func TestDefUsePairArith(t *testing.T) {
	in := Fp3(FADDD, F(0), F(2), F(4))
	uses := refs(&in, in.Uses())
	if !eqStrings(uses, []string{"%f0", "%f1", "%f2", "%f3"}) {
		t.Errorf("faddd uses = %v", uses)
	}
	if !eqStrings(refs(&in, in.Defs()), []string{"%f4", "%f5"}) {
		t.Errorf("faddd defs = %v", refs(&in, in.Defs()))
	}
	// Pair halves share an operand slot; distinct operands get distinct slots.
	u := in.Uses()
	if u[0].Slot != u[1].Slot || u[2].Slot != u[3].Slot || u[0].Slot == u[2].Slot {
		t.Errorf("faddd slots = %v %v %v %v", u[0].Slot, u[1].Slot, u[2].Slot, u[3].Slot)
	}
	if d := in.Defs(); d[0].PairSecond || !d[1].PairSecond {
		t.Errorf("faddd PairSecond = %v %v, want false true", d[0].PairSecond, d[1].PairSecond)
	}
}

func TestDefUseCondCodes(t *testing.T) {
	sub := RRR(SUBCC, O0, O1, O2)
	if !eqStrings(refs(&sub, sub.Defs()), []string{"%o2", "%icc"}) {
		t.Errorf("subcc defs = %v", refs(&sub, sub.Defs()))
	}
	br := Branch(BNE, "L1")
	if !eqStrings(refs(&br, br.Uses()), []string{"%icc"}) {
		t.Errorf("bne uses = %v", refs(&br, br.Uses()))
	}
	fc := Fcmp(FCMPD, F(0), F(2))
	if !eqStrings(refs(&fc, fc.Defs()), []string{"%fcc"}) {
		t.Errorf("fcmpd defs = %v", refs(&fc, fc.Defs()))
	}
	fb := Branch(FBL, "L2")
	if !eqStrings(refs(&fb, fb.Uses()), []string{"%fcc"}) {
		t.Errorf("fbl uses = %v", refs(&fb, fb.Uses()))
	}
}

func TestDefUseCall(t *testing.T) {
	c := Call("_printf")
	if !eqStrings(refs(&c, c.Defs()), []string{"%o7"}) {
		t.Errorf("call defs = %v", refs(&c, c.Defs()))
	}
	r := Ret()
	if !eqStrings(refs(&r, r.Uses()), []string{"%i7"}) {
		t.Errorf("ret uses = %v", refs(&r, r.Uses()))
	}
}

func TestDefUseMulY(t *testing.T) {
	m := RRR(SMUL, O0, O1, O2)
	if !eqStrings(refs(&m, m.Defs()), []string{"%o2", "%y"}) {
		t.Errorf("smul defs = %v", refs(&m, m.Defs()))
	}
	rd := Inst{Op: RDY, RS1: RegNone, RS2: RegNone, RD: O3, Mem: NoMem}
	if !eqStrings(refs(&rd, rd.Uses()), []string{"%y"}) {
		t.Errorf("rd %%y uses = %v", refs(&rd, rd.Uses()))
	}
	if !eqStrings(refs(&rd, rd.Defs()), []string{"%o3"}) {
		t.Errorf("rd %%y defs = %v", refs(&rd, rd.Defs()))
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{RRR(ADD, G1, G2, G3), "add %g1, %g2, %g3"},
		{RIR(SUB, O0, 1, O0), "sub %o0, 1, %o0"},
		{Load(LD, FP, -4, L0), "ld [%fp-4], %l0"},
		{LoadSym(LD, "_x", G0, 0, L1), "ld [_x], %l1"},
		{Store(STDF, F(4), SP, 96), "stdf %f4, [%sp+96]"},
		{Branch(BNE, "L7"), "bne L7"},
		{BranchA(BE, "L8"), "be,a L8"},
		{Call("_foo"), "call _foo"},
		{Fp3(FDIVD, F(0), F(2), F(4)), "fdivd %f0, %f2, %f4"},
		{Fcmp(FCMPS, F(1), F(2)), "fcmps %f1, %f2"},
		{Nop(), "nop"},
		{Sethi(1024, G1), "sethi %hi(1024), %g1"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestLoadSymStringHasSym(t *testing.T) {
	in := LoadSym(LD, "_errno", G0, 0, O0)
	// %g0 base is suppressed as a resource but printed storage must
	// still identify the symbol.
	if got := in.Mem.String(); got != "[_errno]" {
		t.Errorf("Mem.String() = %q", got)
	}
	if len(in.Uses()) != 1 || in.Uses()[0].Kind != RMem {
		t.Errorf("symbol load uses = %v", refs(&in, in.Uses()))
	}
}

func TestConstructorHelpers(t *testing.T) {
	if in := MovI(5, O0); in.Op != MOV || in.Imm != 5 || in.RD != O0 || !in.HasImm {
		t.Errorf("MovI: %+v", in)
	}
	if in := MovR(G2, O0); in.RS2 != G2 || in.HasImm {
		t.Errorf("MovR: %+v", in)
	}
	if in := StoreSym(ST, O0, "_x", G0, 4); in.Mem.Sym != "_x" || in.Mem.Offset != 4 {
		t.Errorf("StoreSym: %+v", in)
	}
	if in := Fp2(FMOVS, F(1), F(2)); in.RS2 != F(1) || in.RD != F(2) {
		t.Errorf("Fp2: %+v", in)
	}
	if in := CmpI(O0, 9); in.Op != CMP || in.Imm != 9 || in.RD != G0 {
		t.Errorf("CmpI: %+v", in)
	}
	if in := SaveI(-96); in.Op != SAVE || in.Imm != -96 || in.RS1 != SP {
		t.Errorf("SaveI: %+v", in)
	}
	if in := Restore(); in.Op != RESTORE {
		t.Errorf("Restore: %+v", in)
	}
	mi := MovI(1, O0)
	if mi.Class() != ClassIU {
		t.Error("Inst.Class wrong")
	}
}

func TestMemExprHelpers(t *testing.T) {
	m := MemExpr{Base: FP, Index: RegNone, Offset: -8}
	if m.HasIndex() {
		t.Error("HasIndex on no-index expr")
	}
	m.Index = O1
	if !m.HasIndex() {
		t.Error("HasIndex missed index")
	}
	w := MemExpr{Base: SP, Index: RegNone, Offset: 64}.wordAfter()
	if w.Offset != 68 || w.Base != SP {
		t.Errorf("wordAfter: %+v", w)
	}
}

func TestClassStringAll(t *testing.T) {
	for c := 0; c < NumClasses; c++ {
		if s := Class(c).String(); s == "" || strings.HasPrefix(s, "class?") {
			t.Errorf("class %d renders %q", c, s)
		}
	}
	if Class(200).String() == "" {
		t.Error("out-of-range class should still render")
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("F(32)", func() { F(32) })
	mustPanic("F(-1)", func() { F(-1) })
	mustPanic("R(32)", func() { R(32) })
	mustPanic("FPNum on int reg", func() { G1.FPNum() })
}

func TestRegNoneString(t *testing.T) {
	if RegNone.String() != "%none" {
		t.Errorf("RegNone renders %q", RegNone.String())
	}
	if Reg(200).String() == "" {
		t.Error("garbage register should still render")
	}
	if Opcode(250).String() == "" {
		t.Error("garbage opcode should still render")
	}
}

func TestPairPredicate(t *testing.T) {
	if !LDD.Pair() || !FADDD.Pair() || ADD.Pair() || LDF.Pair() {
		t.Error("Pair() table wrong")
	}
	// PairSecond marks exactly the destination register RD+1 of a pair
	// instruction, and never a condition code, %y or a memory word.
	for _, in := range []Inst{
		Load(LDD, SP, 8, O2), Load(LDDF, SP, 16, F(2)), Load(LD, FP, -4, O0),
		Store(STD, O0, FP, -8), Store(STDF, F(4), SP, 64), Fp3(FADDD, F(0), F(2), F(4)),
		Fp3(FADDS, F(0), F(1), F(2)), Fcmp(FCMPD, F(0), F(2)),
		RRR(SUBCC, O0, O1, O2), RRR(SMUL, O0, O1, O2), RRR(ADD, O0, O1, O2),
	} {
		for _, d := range in.Defs() {
			isReg := d.Kind == RReg || d.Kind == RFReg
			want := in.Op.Pair() && isReg && d.Reg == in.RD+1
			if d.PairSecond != want {
				t.Errorf("%v: def %v PairSecond = %v, want %v", in.String(), d, d.PairSecond, want)
			}
		}
	}
}

// TestResRefPointerFree guards the reference format: every block's
// extraction appends these by the thousand, so a ResRef stays a small
// tag with nothing for the garbage collector to trace.
func TestResRefPointerFree(t *testing.T) {
	typ := reflect.TypeOf(ResRef{})
	if typ.Size() > 8 {
		t.Errorf("ResRef is %d bytes, want at most 8", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("ResRef.%s is a %v; want a plain scalar", f.Name, f.Type.Kind())
		}
	}
}

func TestUsesNoAllocReuse(t *testing.T) {
	in := RRR(ADD, G1, G2, G3)
	buf := make([]ResRef, 0, 8)
	out := in.AppendUses(buf)
	if len(out) != 2 || cap(out) != 8 {
		t.Errorf("AppendUses should reuse the provided buffer")
	}
}
