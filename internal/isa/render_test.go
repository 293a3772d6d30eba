package isa_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"daginsched/internal/asm"
	"daginsched/internal/isa"
	"daginsched/internal/tables"
)

// fmtMem is the fmt-based rendering MemExpr.String must reproduce.
func fmtMem(m isa.MemExpr) string {
	var b strings.Builder
	b.WriteByte('[')
	wrote := false
	if m.Sym != "" {
		b.WriteString(m.Sym)
		wrote = true
	}
	if m.Base != isa.RegNone && m.Base != isa.G0 {
		if wrote {
			b.WriteByte('+')
		}
		b.WriteString(m.Base.String())
		wrote = true
	}
	if m.Index != isa.RegNone {
		if wrote {
			b.WriteByte('+')
		}
		b.WriteString(m.Index.String())
		wrote = true
	}
	if m.Offset != 0 || !wrote {
		if m.Offset >= 0 && wrote {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%d", m.Offset)
	}
	b.WriteByte(']')
	return b.String()
}

// fmtInst is the fmt-based rendering Inst.String must reproduce.
func fmtInst(in *isa.Inst) string {
	src2 := in.RS2.String()
	if in.HasImm {
		src2 = fmt.Sprintf("%d", in.Imm)
	}
	var b strings.Builder
	b.WriteString(in.Op.String())
	if in.Op.IsBranch() && in.Annul {
		b.WriteString(",a")
	}
	switch in.Op.Format() {
	case isa.FmtNone:
	case isa.Fmt3:
		switch in.Op {
		case isa.MOV:
			fmt.Fprintf(&b, " %s, %s", src2, in.RD)
		case isa.CMP:
			fmt.Fprintf(&b, " %s, %s", in.RS1, src2)
		default:
			fmt.Fprintf(&b, " %s, %s, %s", in.RS1, src2, in.RD)
		}
	case isa.FmtLoad:
		fmt.Fprintf(&b, " %s, %s", fmtMem(in.Mem), in.RD)
	case isa.FmtStore:
		fmt.Fprintf(&b, " %s, %s", in.RD, fmtMem(in.Mem))
	case isa.FmtBranch, isa.FmtCall:
		fmt.Fprintf(&b, " %s", in.Target)
	case isa.FmtSethi:
		fmt.Fprintf(&b, " %%hi(%d), %s", in.Imm, in.RD)
	case isa.FmtFp2:
		fmt.Fprintf(&b, " %s, %s", in.RS2, in.RD)
	case isa.FmtFp3:
		fmt.Fprintf(&b, " %s, %s, %s", in.RS1, in.RS2, in.RD)
	case isa.FmtFcmp:
		fmt.Fprintf(&b, " %s, %s", in.RS1, in.RS2)
	case isa.FmtJmpl:
		fmt.Fprintf(&b, " %s+%d, %s", in.RS1, in.Imm, in.RD)
	case isa.FmtRdY:
		fmt.Fprintf(&b, " %%y, %s", in.RD)
	}
	return b.String()
}

// TestRenderMatchesFmt pins the strconv-based rendering to the fmt
// one, byte for byte: every operand form of every opcode, every memory
// expression shape, and asm.Print over every Table 3 block.
func TestRenderMatchesFmt(t *testing.T) {
	regs := []isa.Reg{isa.RegNone, isa.G0, isa.O3, isa.SP, isa.FP, isa.F(31), isa.ICC, isa.Y, isa.Reg(200)}
	imms := []int32{0, 7, -4, 4095, math.MaxInt32, math.MinInt32}
	var mems []isa.MemExpr
	for _, sym := range []string{"", "_errno"} {
		for _, base := range []isa.Reg{isa.RegNone, isa.G0, isa.O1, isa.F(3)} {
			for _, index := range []isa.Reg{isa.RegNone, isa.L2} {
				for _, off := range []int32{0, 8, -12, math.MinInt32} {
					mems = append(mems, isa.MemExpr{Sym: sym, Base: base, Index: index, Offset: off})
				}
			}
		}
	}
	for _, m := range mems {
		if got, want := m.String(), fmtMem(m); got != want {
			t.Fatalf("%+v: String %q, fmt %q", m, got, want)
		}
	}

	n := 0
	for op := 0; op < isa.NumOpcodes; op++ {
		for i := range regs {
			for k, imm := range imms {
				for _, hasImm := range []bool{false, true} {
					for _, annul := range []bool{false, true} {
						in := isa.Inst{
							Op:     isa.Opcode(op),
							RS1:    regs[i],
							RS2:    regs[(i+1)%len(regs)],
							RD:     regs[(i+2)%len(regs)],
							Imm:    imm,
							HasImm: hasImm,
							Mem:    mems[(i*len(imms)+k)%len(mems)],
							Target: ".L42",
							Annul:  annul,
						}
						if got, want := in.String(), fmtInst(&in); got != want {
							t.Fatalf("%+v: String %q, fmt %q", in, got, want)
						}
						n++
					}
				}
			}
		}
	}

	blocks := 0
	for _, set := range tables.Table3Sets() {
		for _, b := range set.Blocks {
			var want strings.Builder
			for i := range b.Insts {
				if b.Insts[i].Label != "" {
					want.WriteString(b.Insts[i].Label + ":\n")
				}
				want.WriteString("\t" + fmtInst(&b.Insts[i]) + "\n")
			}
			if got := asm.Print(b.Insts); got != want.String() {
				t.Fatalf("%s block %s: Print\n%s\nfmt\n%s", set.Name, b.Name, got, want.String())
			}
			blocks++
		}
	}
	t.Logf("%d memory forms, %d instruction forms, %d Table 3 blocks", len(mems), n, blocks)
}
