package engine

import (
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/isa"
	"daginsched/internal/machine"
	"daginsched/internal/synth"
	"daginsched/internal/testgen"
)

// The fuzz target drives arbitrary-but-well-formed instruction
// sequences through the engine's table pipeline and through the
// ladder's independent n² rung, and holds both to the engine's
// invariants: every schedule must pass the output gate, and the
// scoreboard simulator must co-sign its order and issue cycles.
//
// Fuzz bytes decode 6 bytes per instruction — opcode, two sources, a
// destination, a flag byte and an offset byte — with every register
// clamped into its format's legal range and control transfers allowed
// only in the final slot, so the fuzzer explores the scheduling
// pipeline's state space instead of tripping input-contract asserts.

// fuzzInstBytes is the per-instruction stride of the fuzz encoding.
const fuzzInstBytes = 6

// fuzzMaxInsts bounds one fuzz input so a single exec stays fast.
const fuzzMaxInsts = 256

// decodeInsts turns fuzz bytes into a well-formed instruction
// sequence.
func decodeInsts(data []byte, max int) []isa.Inst {
	n := len(data) / fuzzInstBytes
	if n > max {
		n = max
	}
	insts := make([]isa.Inst, 0, n)
	for i := 0; i < n; i++ {
		q := data[i*fuzzInstBytes : (i+1)*fuzzInstBytes]
		op := isa.Opcode(int(q[0]) % isa.NumOpcodes)
		if op.EndsBlock() && i != n-1 {
			// Control transfers and window ops end a block; mid-block
			// they would violate the partitioner's output contract.
			op = isa.ADD
		}
		intR := func(b byte) isa.Reg { return isa.R(int(b) % isa.NumIntRegs) }
		intPair := func(b byte) isa.Reg { return isa.R(int(b) % (isa.NumIntRegs / 2) * 2) }
		fpR := func(b byte) isa.Reg {
			if op.Pair() {
				return isa.F(int(b) % (isa.NumFPRegs / 2) * 2)
			}
			return isa.F(int(b) % isa.NumFPRegs)
		}
		in := isa.Inst{Op: op, Index: i}
		switch op.Format() {
		case isa.Fmt3:
			in.RS1, in.RD = intR(q[1]), intR(q[3])
			if q[4]&1 != 0 {
				in.HasImm, in.Imm = true, int32(int8(q[2]))
			} else {
				in.RS2 = intR(q[2])
			}
		case isa.FmtSethi:
			in.HasImm, in.Imm = true, int32(q[2])<<10
			in.RD = intR(q[3])
		case isa.FmtLoad, isa.FmtStore:
			switch op {
			case isa.LDF, isa.STF, isa.LDDF, isa.STDF:
				in.RD = fpR(q[3])
			case isa.LDD, isa.STD:
				in.RD = intPair(q[3])
			default:
				in.RD = intR(q[3])
			}
			in.Mem = isa.MemExpr{Base: intR(q[1]), Index: isa.RegNone}
			if q[4]&2 != 0 {
				in.Mem.Index = intR(q[2])
			} else {
				in.Mem.Offset = int32(int8(q[5])) * 4
			}
		case isa.FmtBranch:
			in.Target = "L"
			in.Annul = q[4]&4 != 0
		case isa.FmtCall:
			in.Target = "f"
		case isa.FmtJmpl:
			in.RS1, in.RD = intR(q[1]), intR(q[3])
			in.HasImm, in.Imm = true, int32(int8(q[2]))
		case isa.FmtFp2:
			in.RS2, in.RD = fpR(q[2]), fpR(q[3])
		case isa.FmtFp3:
			in.RS1, in.RS2, in.RD = fpR(q[1]), fpR(q[2]), fpR(q[3])
		case isa.FmtFcmp:
			in.RS1, in.RS2 = fpR(q[1]), fpR(q[2])
		case isa.FmtRdY:
			in.RD = intR(q[3])
		default: // FmtNone
		}
		insts = append(insts, in)
	}
	return insts
}

// encodeInsts is the seeding inverse of decodeInsts: it renders a real
// instruction sequence into the fuzz byte layout so the corpus starts
// from the synthetic benchmark distributions rather than noise.
func encodeInsts(insts []isa.Inst) []byte {
	out := make([]byte, 0, len(insts)*fuzzInstBytes)
	for i := range insts {
		in := &insts[i]
		var flags, off byte
		a, b, c := byte(in.RS1), byte(in.RS2), byte(in.RD)
		if in.HasImm {
			flags |= 1
			b = byte(in.Imm)
		}
		if in.Annul {
			flags |= 4
		}
		switch in.Op.Format() {
		case isa.FmtLoad, isa.FmtStore:
			a = byte(in.Mem.Base)
			if in.Mem.Index != isa.RegNone {
				flags |= 2
				b = byte(in.Mem.Index)
			} else {
				off = byte(in.Mem.Offset / 4)
			}
		case isa.FmtFp2, isa.FmtFp3, isa.FmtFcmp:
			// FP registers encode as their number within the bank.
			a, b, c = byte(in.RS1)-32, byte(in.RS2)-32, byte(in.RD)-32
		}
		out = append(out, byte(in.Op), a, b, c, flags, off)
	}
	return out
}

func FuzzBuildSchedule(f *testing.F) {
	for _, p := range synth.Profiles() {
		blocks := p.Generate()
		for i := 0; i < len(blocks) && i < 3; i++ {
			f.Add(encodeInsts(blocks[i].Insts))
		}
	}
	f.Add(encodeInsts(testgen.Block(1, 64)))
	f.Add(encodeInsts(testgen.Block(2, 3)))
	f.Add([]byte{})

	m := machine.Super2()
	wTable := newWorker(m)
	wN2 := newWorker(m)

	f.Fuzz(func(t *testing.T, data []byte) {
		b := &block.Block{Name: "fuzz", Insts: decodeInsts(data, fuzzMaxInsts)}
		n := b.Len()

		r1, d1 := wTable.schedule(b, m)
		if !wTable.gate(d1, r1, n) {
			t.Fatal("table schedule failed the output gate")
		}
		if err := verify(b, r1, m, wTable.rt); err != nil {
			t.Fatalf("simulator disagrees with table schedule: %v", err)
		}

		// The ladder's independent rung: n² construction and the
		// arc-list heuristic passes, no table state. Its schedule may differ
		// from the table pipeline's (its DAG keeps transitive arcs), so
		// it answers to the gate and the simulator alone.
		r2, d2 := wN2.scheduleN2Direct(b, m)
		if !wN2.gate(d2, r2, n) {
			t.Fatal("n² rung schedule failed the output gate")
		}
		if err := verify(b, r2, m, wN2.rt); err != nil {
			t.Fatalf("simulator disagrees with n² rung schedule: %v", err)
		}
	})
}
