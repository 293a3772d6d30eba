package isa

import "fmt"

// Opcode identifies an instruction operation.
type Opcode uint8

// Format describes an instruction's operand encoding; it drives
// parsing, printing and def/use extraction.
type Format uint8

const (
	// Fmt3 is the three-operand ALU format: op rs1, rs2|imm, rd.
	Fmt3 Format = iota
	// FmtLoad is op [mem], rd.
	FmtLoad
	// FmtStore is op rd, [mem].
	FmtStore
	// FmtBranch is op[,a] label; conditional branches use a condition code.
	FmtBranch
	// FmtCall is call label.
	FmtCall
	// FmtSethi is sethi imm, rd.
	FmtSethi
	// FmtFp2 is the two-operand FP format: op fs2, fd.
	FmtFp2
	// FmtFp3 is the three-operand FP format: op fs1, fs2, fd.
	FmtFp3
	// FmtFcmp is fcmp fs1, fs2 (defines %fcc).
	FmtFcmp
	// FmtJmpl is jmpl rs1+simm, rd.
	FmtJmpl
	// FmtNone has no operands (nop, ret, retl).
	FmtNone
	// FmtRdY is rd %y, rd (reads the %y register).
	FmtRdY
)

// Condition-code effect markers used in the opcode table.
type ccEffect uint8

const (
	ccNone ccEffect = iota
	ccDefI          // defines %icc
	ccUseI          // uses %icc
	ccDefF          // defines %fcc
	ccUseF          // uses %fcc
)

// opInfo is the static description of one opcode.
type opInfo struct {
	name  string
	class Class
	fmt   Format
	cc    ccEffect
	pair  bool // operates on an even/odd register pair (double-word)
}

// The opcode space. Roughly the subset of SPARC v7 (plus synthetic
// mnemonics cmp/mov/ret) that SunOS `cc -O4 -S` output uses, which is
// what the paper's benchmarks consisted of.
const (
	NOP Opcode = iota

	// Integer ALU.
	ADD
	ADDCC
	SUB
	SUBCC
	AND
	ANDCC
	OR
	ORCC
	XOR
	XORCC
	ANDN
	ORN
	XNOR
	SLL
	SRL
	SRA
	SETHI
	MOV // synthetic: or %g0, rs2|imm, rd
	CMP // synthetic: subcc rs1, rs2|imm, %g0

	// Integer multiply/divide (SPARC v8-style, multi-cycle).
	SMUL
	UMUL
	SDIV
	UDIV
	RDY // rd %y, rd

	// Loads.
	LD   // load word
	LDUB // load unsigned byte
	LDSB // load signed byte
	LDUH // load unsigned half
	LDSH // load signed half
	LDD  // load double word into integer register pair
	LDF  // load word into FP register
	LDDF // load double word into FP register pair

	// Stores.
	ST
	STB
	STH
	STD  // store integer register pair
	STF  // store FP register
	STDF // store FP register pair

	// Floating point.
	FADDS
	FADDD
	FSUBS
	FSUBD
	FMULS
	FMULD
	FDIVS
	FDIVD
	FSQRTS
	FSQRTD
	FMOVS
	FNEGS
	FABSS
	FITOS
	FITOD
	FSTOI
	FDTOI
	FSTOD
	FDTOS
	FCMPS
	FCMPD

	// Integer branches (use %icc), plus the unconditional ba/bn.
	BA
	BN
	BE
	BNE
	BG
	BLE
	BGE
	BL
	BGU
	BLEU
	BCC
	BCS
	BPOS
	BNEG

	// FP branches (use %fcc).
	FBE
	FBNE
	FBG
	FBL
	FBGE
	FBLE
	FBU
	FBO

	// Calls and indirect jumps.
	CALL
	JMPL
	RET  // synthetic: jmpl %i7+8, %g0
	RETL // synthetic: jmpl %o7+8, %g0

	// Register-window management.
	SAVE
	RESTORE

	// NumOpcodes is the count of opcodes.
	NumOpcodes = int(RESTORE) + 1
)

var opTable = [NumOpcodes]opInfo{
	NOP: {"nop", ClassMisc, FmtNone, ccNone, false},

	ADD:   {"add", ClassIU, Fmt3, ccNone, false},
	ADDCC: {"addcc", ClassIU, Fmt3, ccDefI, false},
	SUB:   {"sub", ClassIU, Fmt3, ccNone, false},
	SUBCC: {"subcc", ClassIU, Fmt3, ccDefI, false},
	AND:   {"and", ClassIU, Fmt3, ccNone, false},
	ANDCC: {"andcc", ClassIU, Fmt3, ccDefI, false},
	OR:    {"or", ClassIU, Fmt3, ccNone, false},
	ORCC:  {"orcc", ClassIU, Fmt3, ccDefI, false},
	XOR:   {"xor", ClassIU, Fmt3, ccNone, false},
	XORCC: {"xorcc", ClassIU, Fmt3, ccDefI, false},
	ANDN:  {"andn", ClassIU, Fmt3, ccNone, false},
	ORN:   {"orn", ClassIU, Fmt3, ccNone, false},
	XNOR:  {"xnor", ClassIU, Fmt3, ccNone, false},
	SLL:   {"sll", ClassIU, Fmt3, ccNone, false},
	SRL:   {"srl", ClassIU, Fmt3, ccNone, false},
	SRA:   {"sra", ClassIU, Fmt3, ccNone, false},
	SETHI: {"sethi", ClassIU, FmtSethi, ccNone, false},
	MOV:   {"mov", ClassIU, Fmt3, ccNone, false},
	CMP:   {"cmp", ClassIU, Fmt3, ccDefI, false},

	SMUL: {"smul", ClassMul, Fmt3, ccNone, false},
	UMUL: {"umul", ClassMul, Fmt3, ccNone, false},
	SDIV: {"sdiv", ClassMul, Fmt3, ccNone, false},
	UDIV: {"udiv", ClassMul, Fmt3, ccNone, false},
	RDY:  {"rd", ClassIU, FmtRdY, ccNone, false},

	LD:   {"ld", ClassLoad, FmtLoad, ccNone, false},
	LDUB: {"ldub", ClassLoad, FmtLoad, ccNone, false},
	LDSB: {"ldsb", ClassLoad, FmtLoad, ccNone, false},
	LDUH: {"lduh", ClassLoad, FmtLoad, ccNone, false},
	LDSH: {"ldsh", ClassLoad, FmtLoad, ccNone, false},
	LDD:  {"ldd", ClassLoad, FmtLoad, ccNone, true},
	LDF:  {"ldf", ClassLoad, FmtLoad, ccNone, false},
	LDDF: {"lddf", ClassLoad, FmtLoad, ccNone, true},

	ST:   {"st", ClassStore, FmtStore, ccNone, false},
	STB:  {"stb", ClassStore, FmtStore, ccNone, false},
	STH:  {"sth", ClassStore, FmtStore, ccNone, false},
	STD:  {"std", ClassStore, FmtStore, ccNone, true},
	STF:  {"stf", ClassStore, FmtStore, ccNone, false},
	STDF: {"stdf", ClassStore, FmtStore, ccNone, true},

	FADDS:  {"fadds", ClassFPA, FmtFp3, ccNone, false},
	FADDD:  {"faddd", ClassFPA, FmtFp3, ccNone, true},
	FSUBS:  {"fsubs", ClassFPA, FmtFp3, ccNone, false},
	FSUBD:  {"fsubd", ClassFPA, FmtFp3, ccNone, true},
	FMULS:  {"fmuls", ClassFPM, FmtFp3, ccNone, false},
	FMULD:  {"fmuld", ClassFPM, FmtFp3, ccNone, true},
	FDIVS:  {"fdivs", ClassFPD, FmtFp3, ccNone, false},
	FDIVD:  {"fdivd", ClassFPD, FmtFp3, ccNone, true},
	FSQRTS: {"fsqrts", ClassFPD, FmtFp2, ccNone, false},
	FSQRTD: {"fsqrtd", ClassFPD, FmtFp2, ccNone, true},
	FMOVS:  {"fmovs", ClassFPA, FmtFp2, ccNone, false},
	FNEGS:  {"fnegs", ClassFPA, FmtFp2, ccNone, false},
	FABSS:  {"fabss", ClassFPA, FmtFp2, ccNone, false},
	FITOS:  {"fitos", ClassFPA, FmtFp2, ccNone, false},
	FITOD:  {"fitod", ClassFPA, FmtFp2, ccNone, true},
	FSTOI:  {"fstoi", ClassFPA, FmtFp2, ccNone, false},
	FDTOI:  {"fdtoi", ClassFPA, FmtFp2, ccNone, false},
	FSTOD:  {"fstod", ClassFPA, FmtFp2, ccNone, true},
	FDTOS:  {"fdtos", ClassFPA, FmtFp2, ccNone, false},
	FCMPS:  {"fcmps", ClassFPA, FmtFcmp, ccDefF, false},
	FCMPD:  {"fcmpd", ClassFPA, FmtFcmp, ccDefF, true},

	BA:   {"ba", ClassBranch, FmtBranch, ccNone, false},
	BN:   {"bn", ClassBranch, FmtBranch, ccNone, false},
	BE:   {"be", ClassBranch, FmtBranch, ccUseI, false},
	BNE:  {"bne", ClassBranch, FmtBranch, ccUseI, false},
	BG:   {"bg", ClassBranch, FmtBranch, ccUseI, false},
	BLE:  {"ble", ClassBranch, FmtBranch, ccUseI, false},
	BGE:  {"bge", ClassBranch, FmtBranch, ccUseI, false},
	BL:   {"bl", ClassBranch, FmtBranch, ccUseI, false},
	BGU:  {"bgu", ClassBranch, FmtBranch, ccUseI, false},
	BLEU: {"bleu", ClassBranch, FmtBranch, ccUseI, false},
	BCC:  {"bcc", ClassBranch, FmtBranch, ccUseI, false},
	BCS:  {"bcs", ClassBranch, FmtBranch, ccUseI, false},
	BPOS: {"bpos", ClassBranch, FmtBranch, ccUseI, false},
	BNEG: {"bneg", ClassBranch, FmtBranch, ccUseI, false},

	FBE:  {"fbe", ClassBranch, FmtBranch, ccUseF, false},
	FBNE: {"fbne", ClassBranch, FmtBranch, ccUseF, false},
	FBG:  {"fbg", ClassBranch, FmtBranch, ccUseF, false},
	FBL:  {"fbl", ClassBranch, FmtBranch, ccUseF, false},
	FBGE: {"fbge", ClassBranch, FmtBranch, ccUseF, false},
	FBLE: {"fble", ClassBranch, FmtBranch, ccUseF, false},
	FBU:  {"fbu", ClassBranch, FmtBranch, ccUseF, false},
	FBO:  {"fbo", ClassBranch, FmtBranch, ccUseF, false},

	CALL: {"call", ClassCall, FmtCall, ccNone, false},
	JMPL: {"jmpl", ClassCall, FmtJmpl, ccNone, false},
	RET:  {"ret", ClassCall, FmtNone, ccNone, false},
	RETL: {"retl", ClassCall, FmtNone, ccNone, false},

	SAVE:    {"save", ClassWindow, Fmt3, ccNone, false},
	RESTORE: {"restore", ClassWindow, Fmt3, ccNone, false},
}

// String returns the assembly mnemonic.
func (op Opcode) String() string {
	if int(op) < NumOpcodes {
		return opTable[op].name
	}
	return fmt.Sprintf("op?%d", uint8(op))
}

// Class returns the instruction class of op.
func (op Opcode) Class() Class { return opTable[op].class }

// Format returns the operand format of op.
func (op Opcode) Format() Format { return opTable[op].fmt }

// Pair reports whether op reads/writes an even/odd register pair
// (double-word memory ops and double-precision FP arithmetic).
func (op Opcode) Pair() bool { return opTable[op].pair }

// DefsICC reports whether op writes the integer condition codes.
func (op Opcode) DefsICC() bool { return opTable[op].cc == ccDefI }

// UsesICC reports whether op reads the integer condition codes.
func (op Opcode) UsesICC() bool { return opTable[op].cc == ccUseI }

// DefsFCC reports whether op writes the FP condition codes.
func (op Opcode) DefsFCC() bool { return opTable[op].cc == ccDefF }

// UsesFCC reports whether op reads the FP condition codes.
func (op Opcode) UsesFCC() bool { return opTable[op].cc == ccUseF }

// IsLoad reports whether op is a memory load.
func (op Opcode) IsLoad() bool { return op.Class() == ClassLoad }

// IsStore reports whether op is a memory store.
func (op Opcode) IsStore() bool { return op.Class() == ClassStore }

// IsBranch reports whether op is a (conditional or unconditional) branch.
func (op Opcode) IsBranch() bool { return op.Class() == ClassBranch }

// IsCTI reports whether op is a control-transfer instruction (it has a
// delay slot and ends a basic block).
func (op Opcode) IsCTI() bool { return op.Class().IsCTI() }

// EndsBlock reports whether op terminates a basic block: CTIs (branch,
// call, jmpl, ret) and the register-window instructions SAVE/RESTORE,
// which rename the integer register file (Section 2 of the paper).
func (op Opcode) EndsBlock() bool { return op.IsCTI() || op.Class() == ClassWindow }

// opByName maps mnemonics back to opcodes (for the assembler).
var opByName = func() map[string]Opcode {
	m := make(map[string]Opcode, NumOpcodes)
	for op := 0; op < NumOpcodes; op++ {
		m[opTable[op].name] = Opcode(op)
	}
	return m
}()

// OpcodeByName returns the opcode for an assembly mnemonic held in a
// string or a byte slice. It does not allocate: a map index by a
// converted byte slice does not copy it.
func OpcodeByName[T string | []byte](name T) (Opcode, bool) {
	op, ok := opByName[string(name)]
	return op, ok
}
