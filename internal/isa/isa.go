// Package isa defines a SPARC-like instruction set sufficient to
// reproduce the instruction-scheduling study of Smotherman et al.
// (MICRO-24, 1991). The paper's benchmarks were SPARC assembly emitted
// by SunOS compilers; this package models every ISA feature the paper's
// dependence analysis relies on:
//
//   - integer and floating-point register files, with register *pairs*
//     for double-word loads/stores and double-precision arithmetic
//     (the source of per-child RAW-delay skew in Section 2),
//   - condition codes (%icc, %fcc) as schedulable resources,
//   - symbolic memory expressions (base register + offset) on loads and
//     stores, the unit of the paper's memory disambiguation,
//   - control-transfer instructions with annullable delay slots, and
//     SAVE/RESTORE register-window instructions that end basic blocks.
//
// The package is purely representational: instruction latencies and
// per-arc dependence delays live in package machine, and resource
// interning lives in package resource.
package isa

import (
	"fmt"
	"strconv"
)

// Reg names an architectural register. Integer registers occupy 0..31
// (%g0..%g7, %o0..%o7, %l0..%l7, %i0..%i7), floating-point registers
// 32..63 (%f0..%f31), and the special resources %icc, %fcc and %y
// follow. RegNone marks an unused register field.
type Reg uint8

const (
	// Integer registers.
	G0 Reg = iota
	G1
	G2
	G3
	G4
	G5
	G6
	G7
	O0
	O1
	O2
	O3
	O4
	O5
	SP // %o6, the stack pointer
	O7
	L0
	L1
	L2
	L3
	L4
	L5
	L6
	L7
	I0
	I1
	I2
	I3
	I4
	I5
	FP // %i6, the frame pointer
	I7
)

// F0 is the first floating-point register; %f0..%f31 occupy 32..63.
const F0 Reg = 32

const (
	// NumIntRegs is the count of integer registers.
	NumIntRegs = 32
	// NumFPRegs is the count of floating-point registers.
	NumFPRegs = 32

	// ICC is the integer condition-code register.
	ICC Reg = 64
	// FCC is the floating-point condition-code register.
	FCC Reg = 65
	// Y is the multiply/divide Y register.
	Y Reg = 66

	// RegNone marks an absent register operand.
	RegNone Reg = 255
)

// F returns the floating-point register %f<n>.
func F(n int) Reg {
	if n < 0 || n >= NumFPRegs {
		panic(fmt.Sprintf("isa: bad fp register number %d", n))
	}
	return Reg(32 + n)
}

// R returns the integer register %r<n> in the flat 0..31 numbering.
func R(n int) Reg {
	if n < 0 || n >= NumIntRegs {
		panic(fmt.Sprintf("isa: bad int register number %d", n))
	}
	return Reg(n)
}

// IsInt reports whether r is an integer register.
func (r Reg) IsInt() bool { return r < 32 }

// IsFP reports whether r is a floating-point register.
func (r Reg) IsFP() bool { return r >= 32 && r < 64 }

// IsCC reports whether r is a condition-code register.
func (r Reg) IsCC() bool { return r == ICC || r == FCC }

// FPNum returns n for %f<n>. It panics if r is not a floating-point register.
func (r Reg) FPNum() int {
	if !r.IsFP() {
		panic("isa: FPNum on non-FP register")
	}
	return int(r - 32)
}

// regNames holds the assembly name of every nameable register, indexed
// by Reg: the integer file, the FP file, then %icc, %fcc and %y.
var regNames = [Y + 1]string{
	"%g0", "%g1", "%g2", "%g3", "%g4", "%g5", "%g6", "%g7",
	"%o0", "%o1", "%o2", "%o3", "%o4", "%o5", "%sp", "%o7",
	"%l0", "%l1", "%l2", "%l3", "%l4", "%l5", "%l6", "%l7",
	"%i0", "%i1", "%i2", "%i3", "%i4", "%i5", "%fp", "%i7",
	"%f0", "%f1", "%f2", "%f3", "%f4", "%f5", "%f6", "%f7",
	"%f8", "%f9", "%f10", "%f11", "%f12", "%f13", "%f14", "%f15",
	"%f16", "%f17", "%f18", "%f19", "%f20", "%f21", "%f22", "%f23",
	"%f24", "%f25", "%f26", "%f27", "%f28", "%f29", "%f30", "%f31",
	"%icc", "%fcc", "%y",
}

// String returns the assembly name of the register.
func (r Reg) String() string {
	switch {
	case r <= Y:
		return regNames[r]
	case r == RegNone:
		return "%none"
	}
	return "%r?" + strconv.Itoa(int(r))
}

// ParseReg parses an assembly register name ("%o3", "%f12", "%sp"...).
func ParseReg(s string) (Reg, error) {
	if r, ok := RegByName(s); ok {
		return r, nil
	}
	return RegNone, fmt.Errorf("isa: unknown register %q", s)
}

// RegByName is ParseReg without the error, for a name held in a string
// or a byte slice; it does not allocate. The names are the canonical
// ones String returns, the aliases %o6 (%sp) and %i6 (%fp), and the
// flat integer numbering %r0..%r31. Numbers are plain decimal: %f01,
// %f+1 and %f 1 are not registers.
func RegByName[T string | []byte](s T) (Reg, bool) {
	if len(s) < 2 || s[0] != '%' {
		return RegNone, false
	}
	switch len(s) {
	case 2:
		if s[1] == 'y' {
			return Y, true
		}
	case 3:
		if s[2] == 'p' {
			switch s[1] {
			case 's':
				return SP, true
			case 'f':
				return FP, true
			}
			return RegNone, false
		}
		d := Reg(s[2] - '0')
		if d > 9 {
			return RegNone, false
		}
		bank := RegNone
		switch s[1] {
		case 'f':
			return F0 + d, true
		case 'r':
			return d, true
		case 'g':
			bank = G0
		case 'o':
			bank = O0
		case 'l':
			bank = L0
		case 'i':
			bank = I0
		}
		if bank != RegNone && d < 8 {
			return bank + d, true
		}
	case 4:
		if s[2] == 'c' && s[3] == 'c' {
			switch s[1] {
			case 'i':
				return ICC, true
			case 'f':
				return FCC, true
			}
			return RegNone, false
		}
		hi, lo := s[2]-'0', s[3]-'0'
		if hi < 1 || hi > 3 || lo > 9 || hi == 3 && lo > 1 {
			return RegNone, false
		}
		n := Reg(hi*10 + lo)
		switch s[1] {
		case 'f':
			return F0 + n, true
		case 'r':
			return n, true
		}
	}
	return RegNone, false
}

// Class is a coarse instruction class. It drives function-unit
// assignment (structural hazards, the paper's "busy times for floating
// point function units" heuristic) and the superscalar "alternate type"
// heuristic.
type Class uint8

const (
	ClassIU     Class = iota // integer ALU
	ClassMul                 // integer multiply/divide (multi-cycle)
	ClassLoad                // memory load
	ClassStore               // memory store
	ClassFPA                 // FP add/sub/compare/convert/move
	ClassFPM                 // FP multiply
	ClassFPD                 // FP divide / sqrt (long, non-pipelined on FPU model)
	ClassBranch              // conditional and unconditional branches
	ClassCall                // call / jmpl / ret
	ClassWindow              // SAVE / RESTORE
	ClassMisc                // nop and friends

	// NumClasses is the count of instruction classes.
	NumClasses = int(ClassMisc) + 1
)

var classNames = [NumClasses]string{
	"IU", "MUL", "LD", "ST", "FPA", "FPM", "FPD", "BR", "CALL", "WIN", "MISC",
}

// String returns a short class mnemonic.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class?%d", uint8(c))
}

// IsFP reports whether the class executes on a floating-point unit.
func (c Class) IsFP() bool { return c == ClassFPA || c == ClassFPM || c == ClassFPD }

// IsCTI reports whether the class is a control-transfer instruction.
func (c Class) IsCTI() bool { return c == ClassBranch || c == ClassCall }
