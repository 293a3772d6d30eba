package isa

import (
	"fmt"
	"strconv"
)

// MemExpr is a symbolic memory address expression as it appears in a
// load or store: [base + offset] or [base + index]. The paper counts
// "unique memory expressions" per basic block (Table 3) and makes them
// the unit of memory disambiguation: two references with the same base
// register but different offsets cannot alias, while references with
// different base registers must be serialized unless their storage
// classes are known not to overlap (Warren's observation).
type MemExpr struct {
	Base   Reg   // base register (RegNone for absolute/symbol addressing)
	Index  Reg   // optional index register (RegNone if absent)
	Offset int32 // constant displacement
	Sym    string
	// Sym is an optional symbolic label ("_errno", ".L42"); when
	// non-empty the expression addresses static storage.
}

// HasIndex reports whether the expression uses a register index.
func (m MemExpr) HasIndex() bool { return m.Index != RegNone }

// String renders the expression in assembly syntax.
func (m MemExpr) String() string { return string(m.appendTo(make([]byte, 0, 24))) }

// appendTo appends the expression in assembly syntax to b.
func (m MemExpr) appendTo(b []byte) []byte {
	b = append(b, '[')
	wrote := false
	if m.Sym != "" {
		b = append(b, m.Sym...)
		wrote = true
	}
	if m.Base != RegNone && m.Base != G0 {
		if wrote {
			b = append(b, '+')
		}
		b = append(b, m.Base.String()...)
		wrote = true
	}
	if m.Index != RegNone {
		if wrote {
			b = append(b, '+')
		}
		b = append(b, m.Index.String()...)
		wrote = true
	}
	if m.Offset != 0 || !wrote {
		if m.Offset >= 0 && wrote {
			b = append(b, '+')
		}
		b = strconv.AppendInt(b, int64(m.Offset), 10)
	}
	return append(b, ']')
}

// Key returns a canonical string identifying the symbolic expression.
// Two loads/stores have the same "unique memory expression" (Table 3's
// last column) exactly when their Keys are equal.
func (m MemExpr) Key() string {
	return fmt.Sprintf("%s|%d|%d|%d", m.Sym, m.Base, m.Index, m.Offset)
}

// wordAfter returns the expression one memory word (4 bytes) later —
// the second word of a double-word access.
func (m MemExpr) wordAfter() MemExpr {
	m.Offset += 4
	return m
}

// NoMem is the zero-ish MemExpr used for non-memory instructions.
var NoMem = MemExpr{Base: RegNone, Index: RegNone}

// Inst is one machine instruction. The representation is format-tagged
// (see Opcode.Format): register fields that a format does not use hold
// RegNone.
type Inst struct {
	Op     Opcode
	RS1    Reg     // first source register
	RS2    Reg     // second source register (when HasImm is false)
	RD     Reg     // destination register
	Imm    int32   // immediate second operand (when HasImm is true)
	HasImm bool    // instruction uses Imm instead of RS2
	Mem    MemExpr // memory expression for loads and stores
	Target string  // branch/call target label
	Annul  bool    // ",a" annulled branch
	Label  string  // label defined on this instruction, if any
	Index  int     // position in the original instruction stream
}

// Class returns the instruction's class.
func (in *Inst) Class() Class { return in.Op.Class() }

// String renders the instruction in assembly syntax (without its label).
func (in *Inst) String() string { return string(in.AppendTo(make([]byte, 0, 48))) }

// AppendTo appends the instruction in assembly syntax (without its
// label) to b.
func (in *Inst) AppendTo(b []byte) []byte {
	b = append(b, in.Op.String()...)
	if in.Op.IsBranch() && in.Annul {
		b = append(b, ",a"...)
	}
	f := in.Op.Format()
	if f == FmtNone {
		return b
	}
	b = append(b, ' ')
	switch f {
	case Fmt3:
		switch in.Op {
		case MOV: // synthetic: or %g0, src2, rd
			b = appendNextReg(in.appendSrc2(b), in.RD)
		case CMP: // synthetic: subcc rs1, src2, %g0
			b = append(b, in.RS1.String()...)
			b = in.appendSrc2(append(b, ", "...))
		default:
			b = append(b, in.RS1.String()...)
			b = appendNextReg(in.appendSrc2(append(b, ", "...)), in.RD)
		}
	case FmtLoad:
		b = appendNextReg(in.Mem.appendTo(b), in.RD)
	case FmtStore:
		b = append(b, in.RD.String()...)
		b = in.Mem.appendTo(append(b, ", "...))
	case FmtBranch, FmtCall:
		b = append(b, in.Target...)
	case FmtSethi:
		b = strconv.AppendInt(append(b, "%hi("...), int64(in.Imm), 10)
		b = appendNextReg(append(b, ')'), in.RD)
	case FmtFp2:
		b = appendNextReg(append(b, in.RS2.String()...), in.RD)
	case FmtFp3:
		b = append(b, in.RS1.String()...)
		b = appendNextReg(appendNextReg(b, in.RS2), in.RD)
	case FmtFcmp:
		b = appendNextReg(append(b, in.RS1.String()...), in.RS2)
	case FmtJmpl:
		b = append(append(b, in.RS1.String()...), '+')
		b = appendNextReg(strconv.AppendInt(b, int64(in.Imm), 10), in.RD)
	case FmtRdY:
		b = appendNextReg(append(b, "%y"...), in.RD)
	}
	return b
}

// appendSrc2 appends the second ALU operand: the immediate or RS2.
func (in *Inst) appendSrc2(b []byte) []byte {
	if in.HasImm {
		return strconv.AppendInt(b, int64(in.Imm), 10)
	}
	return append(b, in.RS2.String()...)
}

// appendNextReg appends ", " and r's name.
func appendNextReg(b []byte, r Reg) []byte {
	return append(append(b, ", "...), r.String()...)
}

// ResKind classifies a resource reference.
type ResKind uint8

const (
	// RReg is an integer register.
	RReg ResKind = iota
	// RFReg is a floating-point register.
	RFReg
	// RCC is a condition-code register (%icc or %fcc).
	RCC
	// RY is the %y register.
	RY
	// RMem is a memory location named by a symbolic expression.
	RMem
)

// ResRef is one resource use or definition extracted from an
// instruction. Slot records the source-operand position (0-based within
// the instruction's use list); the machine model can key RAW delays on
// it to model asymmetric bypass paths (the paper's RS/6000 example).
type ResRef struct {
	Kind ResKind
	Reg  Reg     // for RReg / RFReg / RCC / RY
	Mem  MemExpr // for RMem
	Slot uint8
}

// String renders the reference for debugging.
func (r ResRef) String() string {
	if r.Kind == RMem {
		return "mem" + r.Mem.String()
	}
	return r.Reg.String()
}

func regRef(r Reg, slot uint8) ResRef {
	k := RReg
	switch {
	case r.IsFP():
		k = RFReg
	case r.IsCC():
		k = RCC
	case r == Y:
		k = RY
	}
	return ResRef{Kind: k, Reg: r, Slot: slot}
}

// appendReg appends a register reference unless it is %g0 (hardwired
// zero: reads and writes of %g0 create no dependence) or RegNone.
func appendReg(dst []ResRef, r Reg, slot uint8) []ResRef {
	if r == G0 || r == RegNone {
		return dst
	}
	//sched:lint-ignore noalloc amortized: callers pass recycled dst whose capacity is retained across blocks
	return append(dst, regRef(r, slot))
}

// appendPair appends r and, for pair instructions, its odd partner.
// Both halves get the same operand slot: they arrive on the same port.
func appendPair(dst []ResRef, r Reg, pair bool, slot uint8) []ResRef {
	dst = appendReg(dst, r, slot)
	if pair && r != G0 && r != RegNone {
		dst = appendReg(dst, r+1, slot)
	}
	return dst
}

// AppendUses appends the resources read by in to dst and returns the
// extended slice. Slots number the uses in order of appearance.
func (in *Inst) AppendUses(dst []ResRef) []ResRef {
	slot := uint8(0)
	add := func(r Reg, pair bool) {
		n := len(dst)
		dst = appendPair(dst, r, pair, slot)
		if len(dst) > n {
			slot++
		}
	}
	info := &opTable[in.Op]
	switch info.fmt {
	case Fmt3:
		add(in.RS1, false)
		if !in.HasImm {
			add(in.RS2, false)
		}
	case FmtLoad:
		add(in.Mem.Base, false)
		add(in.Mem.Index, false)
		//sched:lint-ignore noalloc amortized: callers pass recycled dst whose capacity is retained across blocks
		dst = append(dst, ResRef{Kind: RMem, Mem: in.Mem, Slot: slot})
		if info.pair {
			// A double-word access touches two memory words; emitting
			// both keeps "same base, different offset" disambiguation
			// sound when single- and double-word accesses overlap.
			//sched:lint-ignore noalloc amortized: callers pass recycled dst whose capacity is retained across blocks
			dst = append(dst, ResRef{Kind: RMem, Mem: in.Mem.wordAfter(), Slot: slot})
		}
		slot++
	case FmtStore:
		add(in.RD, info.pair) // store data
		add(in.Mem.Base, false)
		add(in.Mem.Index, false)
	case FmtFp2:
		add(in.RS2, info.pair)
	case FmtFp3:
		add(in.RS1, info.pair)
		add(in.RS2, info.pair)
	case FmtFcmp:
		add(in.RS1, info.pair)
		add(in.RS2, info.pair)
	case FmtJmpl:
		add(in.RS1, false)
	case FmtRdY:
		add(Y, false)
	case FmtBranch, FmtCall, FmtSethi, FmtNone:
		// handled below / no register uses
	}
	switch info.cc {
	case ccUseI:
		//sched:lint-ignore noalloc amortized: callers pass recycled dst whose capacity is retained across blocks
		dst = append(dst, ResRef{Kind: RCC, Reg: ICC, Slot: slot})
	case ccUseF:
		//sched:lint-ignore noalloc amortized: callers pass recycled dst whose capacity is retained across blocks
		dst = append(dst, ResRef{Kind: RCC, Reg: FCC, Slot: slot})
	}
	if in.Op == RET {
		dst = appendReg(dst, I7, slot)
	}
	if in.Op == RETL {
		dst = appendReg(dst, O7, slot)
	}
	return dst
}

// AppendDefs appends the resources written by in to dst and returns the
// extended slice. For pair instructions both halves of the destination
// pair are distinct definitions; the machine model gives the odd half a
// skewed RAW delay (Section 2: "the RAW delays for these registers can
// be one or two cycles different").
func (in *Inst) AppendDefs(dst []ResRef) []ResRef {
	info := &opTable[in.Op]
	switch info.fmt {
	case Fmt3, FmtSethi, FmtJmpl, FmtRdY:
		dst = appendReg(dst, in.RD, 0)
	case FmtLoad:
		dst = appendPair(dst, in.RD, info.pair, 0)
	case FmtStore:
		//sched:lint-ignore noalloc amortized: callers pass recycled dst whose capacity is retained across blocks
		dst = append(dst, ResRef{Kind: RMem, Mem: in.Mem})
		if info.pair {
			//sched:lint-ignore noalloc amortized: callers pass recycled dst whose capacity is retained across blocks
			dst = append(dst, ResRef{Kind: RMem, Mem: in.Mem.wordAfter()})
		}
	case FmtFp2, FmtFp3:
		dst = appendPair(dst, in.RD, info.pair, 0)
	case FmtCall:
		dst = appendReg(dst, O7, 0)
	case FmtBranch, FmtFcmp, FmtNone:
		// no register destinations
	}
	switch info.cc {
	case ccDefI:
		//sched:lint-ignore noalloc amortized: callers pass recycled dst whose capacity is retained across blocks
		dst = append(dst, ResRef{Kind: RCC, Reg: ICC})
	case ccDefF:
		//sched:lint-ignore noalloc amortized: callers pass recycled dst whose capacity is retained across blocks
		dst = append(dst, ResRef{Kind: RCC, Reg: FCC})
	}
	switch in.Op {
	case SMUL, UMUL, SDIV, UDIV:
		//sched:lint-ignore noalloc amortized: callers pass recycled dst whose capacity is retained across blocks
		dst = append(dst, ResRef{Kind: RY, Reg: Y})
	}
	return dst
}

// Uses returns a fresh slice of the resources read by in.
func (in *Inst) Uses() []ResRef { return in.AppendUses(nil) }

// Defs returns a fresh slice of the resources written by in.
func (in *Inst) Defs() []ResRef { return in.AppendDefs(nil) }

// PairSecondDef reports whether the i'th definition returned by
// AppendDefs is the odd (second) half of a destination register pair.
func (in *Inst) PairSecondDef(def ResRef) bool {
	if !opTable[in.Op].pair {
		return false
	}
	if def.Kind != RReg && def.Kind != RFReg {
		return false
	}
	return def.Reg == in.RD+1
}
