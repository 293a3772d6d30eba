// Package block partitions an instruction stream into basic blocks
// using the rules of Section 2 of the paper:
//
//   - control-transfer instructions (branches, calls, jmpl/ret) end a
//     block, as do the register-window instructions SAVE and RESTORE,
//     "since register identifiers name different physical resources on
//     different sides of these instructions";
//   - a label (branch target) starts a new block;
//   - "a delay slot instruction, including that for an annulling branch,
//     is included in the counts for the basic block following the
//     branch" (Table 3's counting rule), so the block boundary falls
//     immediately after the CTI and the delay-slot instruction leads the
//     next block.
//
// The package also implements the instruction windows of Section 6: the
// n**2 construction algorithm only stays practical when blocks are
// capped at a maximum size (fpppp-1000/2000/4000), while the
// table-building methods need no window.
package block

import "daginsched/internal/isa"

// Block is one basic block.
type Block struct {
	// Name is the leading label, or a synthesized ".bb<n>" name.
	Name string
	// Insts are the block's instructions, in original program order.
	// Inst.Index numbers them within the block (0-based).
	Insts []isa.Inst
	// Start is the index of the block's first instruction in the
	// original stream.
	Start int
	// WindowPiece is > 0 when the block is a non-first piece produced by
	// instruction-window splitting.
	WindowPiece int
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return len(b.Insts) }

// EndsInCTI reports whether the block's last instruction is a
// control-transfer instruction.
func (b *Block) EndsInCTI() bool {
	return len(b.Insts) > 0 && b.Insts[len(b.Insts)-1].Op.IsCTI()
}

// Partition splits an instruction stream into basic blocks.
func Partition(prog []isa.Inst) []*Block {
	var blocks []*Block
	var cur *Block
	flush := func() {
		if cur != nil && len(cur.Insts) > 0 {
			blocks = append(blocks, cur)
		}
		cur = nil
	}
	for i := range prog {
		in := prog[i]
		if in.Label != "" {
			flush()
		}
		if cur == nil {
			name := in.Label
			if name == "" {
				name = SynthName(len(blocks))
			}
			cur = &Block{Name: name, Start: i}
		}
		in.Index = len(cur.Insts)
		cur.Insts = append(cur.Insts, in)
		if in.Op.EndsBlock() {
			flush()
		}
	}
	flush()
	return blocks
}

// SynthName is the synthesized ".bb<n>" name of the n-th emitted block
// (0-based) when no label leads it. It is exported so streaming
// partitioners (asm.BlockScanner) name blocks identically to Partition.
func SynthName(n int) string {
	// Small hand-rolled itoa keeps this allocation-light on huge streams.
	buf := [24]byte{'.', 'b', 'b'}
	i := len(buf)
	if n == 0 {
		i--
		buf[i] = '0'
	}
	for v := n; v > 0; v /= 10 {
		i--
		buf[i] = byte('0' + v%10)
	}
	copy(buf[3:], buf[i:])
	//sched:lint-ignore noalloc the name is the one allocation an unlabeled block costs
	return string(buf[:3+len(buf)-i])
}

// SplitWindow applies an instruction window: every block longer than
// max is split into consecutive pieces of at most max instructions.
// max <= 0 means no window. The paper's fpppp-1000/-2000/-4000 data
// sets are windowed views of the same program.
func SplitWindow(blocks []*Block, max int) []*Block {
	if max <= 0 {
		return blocks
	}
	var out []*Block
	for _, b := range blocks {
		if len(b.Insts) <= max {
			out = append(out, b)
			continue
		}
		for piece, off := 0, 0; off < len(b.Insts); piece, off = piece+1, off+max {
			end := off + max
			if end > len(b.Insts) {
				end = len(b.Insts)
			}
			nb := &Block{
				Name:        b.Name,
				Start:       b.Start + off,
				WindowPiece: piece,
			}
			nb.Insts = append(nb.Insts, b.Insts[off:end]...)
			for j := range nb.Insts {
				nb.Insts[j].Index = j
			}
			out = append(out, nb)
		}
	}
	return out
}

// Stats are the per-program structural statistics of Table 3.
type Stats struct {
	Blocks       int     // number of basic blocks
	Insts        int     // total instructions
	MaxBlockLen  int     // largest block
	AvgBlockLen  float64 // instructions per block
	MaxUniqueMem int     // most unique memory expressions in one block
	AvgUniqueMem float64 // unique memory expressions per block
}

// Measure computes Table 3's structural statistics. uniqueMem gives the
// number of unique symbolic memory expressions in one block (usually
// resource.UniqueMemExprs over its instructions).
func Measure(blocks []*Block, uniqueMem func(*Block) int) Stats {
	var s Stats
	s.Blocks = len(blocks)
	totalMem := 0
	for _, b := range blocks {
		n := b.Len()
		s.Insts += n
		if n > s.MaxBlockLen {
			s.MaxBlockLen = n
		}
		u := uniqueMem(b)
		totalMem += u
		if u > s.MaxUniqueMem {
			s.MaxUniqueMem = u
		}
	}
	if s.Blocks > 0 {
		s.AvgBlockLen = float64(s.Insts) / float64(s.Blocks)
		s.AvgUniqueMem = float64(totalMem) / float64(s.Blocks)
	}
	return s
}
