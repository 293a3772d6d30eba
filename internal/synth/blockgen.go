package synth

import (
	"math"

	"daginsched/internal/isa"
)

// genScratch is the recycled working set of block generation: the
// fill map, the unique-expression set and the position list are reused
// block to block within one generation pass, so a pass allocates no
// per-block scratch. The scratch never influences the rng draw
// sequence — a generator running on a warm scratch emits bit-identical
// blocks to one on a fresh scratch.
type genScratch struct {
	filled    []bool
	exprs     []isa.MemExpr
	positions []int
	// seen dedups candidate expressions, keyed on the struct itself
	// (MemExpr is comparable and every field distinguishes addresses):
	// the same identity resource.UniqueMemExprs counts by, with no
	// formatting or string allocation per draw. Its live entries always
	// mirror exprs, which doubles as the deletion log for the next
	// block's reset.
	seen map[isa.MemExpr]bool
}

// blockGen emits the instructions of one synthetic basic block.
type blockGen struct {
	r   *rng
	p   Profile
	n   int // instructions to emit
	mem int // unique memory expressions to realize
	sc  *genScratch
}

// Register pools. Modest sizes force the register reuse (WAR/WAW
// pressure) that compiled code exhibits.
var (
	intRegs = []isa.Reg{isa.O0, isa.O1, isa.O2, isa.O3, isa.L0, isa.L1, isa.L2,
		isa.L3, isa.G1, isa.G2, isa.I0, isa.I1}
	fpRegs = []isa.Reg{isa.F0, isa.F0 + 2, isa.F0 + 4, isa.F0 + 6, isa.F0 + 8,
		isa.F0 + 10, isa.F0 + 12, isa.F0 + 14, isa.F0 + 16, isa.F0 + 18}
	symPool = []string{"_buf", "_tab", "_state", "_coef", "_x", "_y", "_z", "_acc"}
)

func (g *blockGen) intReg() isa.Reg { return intRegs[g.r.intn(len(intRegs))] }
func (g *blockGen) fpReg() isa.Reg  { return fpRegs[g.r.intn(len(fpRegs))] }

// generate lays out the block: an optional cmp+branch tail, memory
// operations realizing exactly g.mem unique expressions (biased toward
// the block end under MemLate), and an ALU/FP filler mix everywhere
// else.
func (g *blockGen) generate() []isa.Inst {
	n := g.n
	insts := make([]isa.Inst, n)
	sc := g.sc
	if cap(sc.filled) < n {
		sc.filled = make([]bool, n)
	} else {
		sc.filled = sc.filled[:n]
		clear(sc.filled)
	}
	filled := sc.filled

	// Branch tail on a fraction of multi-instruction blocks.
	body := n
	if n >= 3 && g.r.intn(10) < 7 {
		if g.p.FP && g.r.intn(3) == 0 {
			insts[n-2] = isa.Fcmp(isa.FCMPD, g.fpReg(), g.fpReg())
			insts[n-1] = isa.Branch(isa.FBNE, ".L")
		} else {
			insts[n-2] = isa.CmpI(g.intReg(), int32(g.r.intn(64)))
			insts[n-1] = isa.Branch(isa.BNE, ".L")
		}
		if g.r.intn(4) == 0 {
			insts[n-1].Annul = true
		}
		filled[n-2], filled[n-1] = true, true
		body = n - 2
	}

	// Unique memory expressions and their access instructions.
	exprs := g.memExprs()
	memOps := len(exprs)
	if memOps > 0 {
		// Reuse some expressions. Reuses are rarer in the fpppp-style
		// giant block (each symbolic address is touched near-once),
		// which keeps the windowed unique-expression counts from
		// smearing across window pieces.
		div := 2
		if g.p.MemLate {
			div = 4
		}
		extra := g.r.intn(memOps/div + 1)
		if memOps+extra > body {
			extra = body - memOps
		}
		memOps += extra
	}
	positions := g.memPositions(body, memOps, filled)
	for k, pos := range positions {
		e := exprs[k%len(exprs)] // first len(exprs) hits realize each expr once
		insts[pos] = g.memInst(e)
		filled[pos] = true
	}

	// Filler.
	for i := 0; i < n; i++ {
		if !filled[i] {
			insts[i] = g.filler()
		}
	}
	return insts
}

// memExprs builds g.mem distinct symbolic memory expressions in the
// benchmark's style: frame slots for the C programs, array/static
// storage for the Fortran kernels.
func (g *blockGen) memExprs() []isa.MemExpr {
	sc := g.sc
	if sc.seen == nil {
		sc.seen = make(map[isa.MemExpr]bool, g.mem)
	} else {
		// Targeted deletes, not clear(): clear walks every bucket the
		// map ever grew, which a giant block makes every later tiny
		// block pay for. The previous block's exprs are exactly the
		// map's entries.
		for _, e := range sc.exprs {
			delete(sc.seen, e)
		}
	}
	exprs := sc.exprs[:0]
	seen := sc.seen
	for len(exprs) < g.mem {
		var m isa.MemExpr
		if g.p.FP {
			switch g.r.intn(3) {
			case 0:
				m = isa.MemExpr{Base: isa.G0, Index: isa.RegNone,
					Sym: symPool[g.r.intn(len(symPool))], Offset: int32(g.r.intn(512)) * 8}
			default:
				m = isa.MemExpr{Base: isa.SP, Index: isa.RegNone,
					Offset: 64 + int32(g.r.intn(1024))*8}
			}
		} else {
			if g.r.intn(4) == 0 {
				m = isa.MemExpr{Base: isa.G0, Index: isa.RegNone,
					Sym: symPool[g.r.intn(len(symPool))], Offset: int32(g.r.intn(64)) * 4}
			} else {
				m = isa.MemExpr{Base: isa.FP, Index: isa.RegNone,
					Offset: -4 - int32(g.r.intn(256))*4}
			}
		}
		if !seen[m] {
			seen[m] = true
			exprs = append(exprs, m)
		}
	}
	sc.exprs = exprs
	return exprs
}

// memPositions picks where the memory operations sit. Under MemLate on
// large blocks, draws cluster toward the block end with a power-law
// profile — reproducing fpppp's layout ("the placement of symbolic
// memory address expressions more toward the end of the large basic
// block", Section 6). The exponent is calibrated so the windowed
// unique-expression maxima of Table 3 (120/161/209 at windows
// 1000/2000/4000, of 324 total) come out: the cumulative fraction of
// expressions within the final x of the block is ≈ x^0.4, i.e. the
// offset-from-end is distributed as u^2.5.
func (g *blockGen) memPositions(body, count int, filled []bool) []int {
	if count > body {
		count = body
	}
	out := g.sc.positions[:0]
	late := g.p.MemLate && body > 600
	for len(out) < count {
		var pos int
		if late {
			u := float64(g.r.next()%(1<<20)) / (1 << 20)
			fromEnd := int(float64(body) * u * u * math.Sqrt(u))
			pos = body - 1 - fromEnd
			if pos < 0 {
				pos = 0
			}
		} else {
			pos = g.r.intn(body)
		}
		if !filled[pos] {
			filled[pos] = true
			out = append(out, pos)
		}
	}
	g.sc.positions = out
	return out
}

// memInst builds a load or store on expression e.
func (g *blockGen) memInst(e isa.MemExpr) isa.Inst {
	if g.p.FP {
		switch g.r.intn(4) {
		case 0:
			return isa.Inst{Op: isa.STDF, RD: g.fpReg(), Mem: e,
				RS1: isa.RegNone, RS2: isa.RegNone}
		case 1:
			return isa.Inst{Op: isa.STF, RD: g.fpReg(), Mem: e,
				RS1: isa.RegNone, RS2: isa.RegNone}
		case 2:
			return isa.Inst{Op: isa.LDF, RD: g.fpReg(), Mem: e,
				RS1: isa.RegNone, RS2: isa.RegNone}
		default:
			return isa.Inst{Op: isa.LDDF, RD: g.fpReg(), Mem: e,
				RS1: isa.RegNone, RS2: isa.RegNone}
		}
	}
	switch g.r.intn(3) {
	case 0:
		return isa.Inst{Op: isa.ST, RD: g.intReg(), Mem: e,
			RS1: isa.RegNone, RS2: isa.RegNone}
	case 1:
		return isa.Inst{Op: isa.LDUB, RD: g.intReg(), Mem: e,
			RS1: isa.RegNone, RS2: isa.RegNone}
	default:
		return isa.Inst{Op: isa.LD, RD: g.intReg(), Mem: e,
			RS1: isa.RegNone, RS2: isa.RegNone}
	}
}

// filler builds a non-memory instruction in the benchmark's mix.
func (g *blockGen) filler() isa.Inst {
	if g.p.FP && g.r.intn(10) < 7 {
		switch g.r.intn(8) {
		case 0, 1, 2:
			return isa.Fp3(isa.FADDD, g.fpReg(), g.fpReg(), g.fpReg())
		case 3, 4:
			return isa.Fp3(isa.FMULD, g.fpReg(), g.fpReg(), g.fpReg())
		case 5:
			return isa.Fp3(isa.FSUBD, g.fpReg(), g.fpReg(), g.fpReg())
		case 6:
			return isa.Fp2(isa.FMOVS, g.fpReg(), g.fpReg())
		default:
			return isa.Fp3(isa.FDIVD, g.fpReg(), g.fpReg(), g.fpReg())
		}
	}
	switch g.r.intn(10) {
	case 0, 1, 2:
		return isa.RRR(isa.ADD, g.intReg(), g.intReg(), g.intReg())
	case 3, 4:
		return isa.RIR(isa.ADD, g.intReg(), int32(g.r.intn(128)), g.intReg())
	case 5:
		return isa.RIR(isa.SLL, g.intReg(), int32(g.r.intn(8)), g.intReg())
	case 6:
		return isa.RRR(isa.XOR, g.intReg(), g.intReg(), g.intReg())
	case 7:
		return isa.RIR(isa.SUB, g.intReg(), int32(g.r.intn(64)), g.intReg())
	case 8:
		return isa.MovI(int32(g.r.intn(256)), g.intReg())
	default:
		return isa.Sethi(int32(g.r.intn(1<<12))*1024, g.intReg())
	}
}
