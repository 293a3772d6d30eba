// Package delayslot implements the special control-hazard pass the
// paper's introduction mentions: "Control hazards can also be handled
// in a special manner, possibly by a delay slot scheduler."
//
// On the SPARC-like target, every control-transfer instruction has one
// delay slot that executes regardless of the branch outcome (unless the
// branch is annulled, ",a", in which case the slot is squashed on
// fall-through). Compilers emit a nop there when they find nothing
// better; this pass replaces such nops with a useful instruction hoisted
// from above the branch.
//
// A candidate must satisfy three conditions:
//
//  1. it lives in the branch's own basic block (hoisting from the
//     target or fall-through block would need control-flow analysis);
//  2. it is a dependence-DAG leaf of that block — no later instruction,
//     including the branch and its condition, consumes or overwrites
//     anything it produces — so sliding it past them changes nothing;
//  3. it is not itself a CTI.
//
// Moving such an instruction into the slot only delays its effects past
// the branch *issue*, never past its own consumers, so architectural
// state at every visible point is unchanged.
//
// For *annulled* branches (",a"), whose slot is squashed on
// fall-through, same-block hoisting is illegal; instead the pass uses
// the control-flow graph: when the branch target is a block whose only
// predecessor is this branch, a dependence-DAG *root* of the target can
// move up into the slot — it executes exactly when the target would
// have executed it, on the only path that reaches it.
package delayslot

import (
	"daginsched/internal/block"
	"daginsched/internal/cfg"
	"daginsched/internal/dag"
	"daginsched/internal/isa"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
)

// Result reports what the pass did.
type Result struct {
	// Insts is the rewritten program.
	Insts []isa.Inst
	// Filled counts delay slots that received a useful instruction.
	Filled int
	// Candidates counts nop delay slots examined (filled or not).
	Candidates int
}

// Fill scans a program for CTIs trailed by a nop delay slot and hoists
// a suitable instruction into the slot: from the CTI's own block for
// ordinary branches, from a single-predecessor target block for
// annulled ones.
func Fill(insts []isa.Inst, m *machine.Model, memModel resource.MemModel) *Result {
	res := &Result{}
	g := cfg.Build(insts)
	blocks := make([]*block.Block, len(g.Blocks))
	for i, n := range g.Blocks {
		blocks[i] = n.Block
	}
	rt := resource.NewTable(memModel)

	drop := make(map[int]bool) // stream positions to remove
	fillWith := make(map[int]isa.Inst)

	for bi, b := range blocks {
		n := b.Len()
		if n < 1 || !b.EndsInCTI() {
			continue
		}
		cti := b.Insts[n-1]
		// The delay slot is the first instruction of the next block.
		if bi+1 >= len(blocks) || blocks[bi+1].Len() == 0 {
			continue
		}
		slot := blocks[bi+1].Insts[0]
		if slot.Op != isa.NOP || slot.Label != "" {
			continue
		}
		res.Candidates++
		if cti.Annul {
			// Squashing slot: hoist a root of the branch target, legal
			// only when this branch is the target's sole way in.
			ti, cand := annulCandidate(g, bi, m, rt)
			if cand < 0 {
				continue
			}
			res.Filled++
			target := blocks[ti]
			drop[target.Start+int(cand)] = true
			moved := target.Insts[cand]
			moved.Label = ""
			fillWith[blocks[bi+1].Start] = moved
			continue
		}
		if n < 2 {
			continue
		}
		rt.PrepareBlock(b.Insts)
		d := dag.TableForward{}.Build(b, m, rt)
		cand := pickLeaf(d)
		if cand < 0 {
			continue
		}
		// Hoist: remove the candidate from its position, replace the nop.
		res.Filled++
		drop[b.Start+int(cand)] = true
		moved := b.Insts[cand]
		moved.Label = "" // the candidate cannot carry a label mid-block
		fillWith[blocks[bi+1].Start] = moved
	}

	for i := range insts {
		if drop[i] {
			// Preserve a label by pushing it to the next surviving inst.
			if insts[i].Label != "" {
				for j := i + 1; j < len(insts); j++ {
					if !drop[j] {
						insts[j].Label = insts[i].Label
						break
					}
				}
			}
			continue
		}
		in := insts[i]
		if rep, ok := fillWith[i]; ok {
			rep.Label = in.Label // keep the slot's (block's) label if any
			in = rep
		}
		res.Insts = append(res.Insts, in)
	}
	for i := range res.Insts {
		res.Insts[i].Index = i
	}
	return res
}

// annulCandidate finds an instruction to fill an annulled branch's
// slot: a non-CTI dependence-DAG root of the branch's target block,
// provided the target is reached only through this branch (single
// predecessor, no external entries) and its first instruction carries
// the label (so removing a root deeper in the block is safe — the
// label stays put). Returns the target block index and the candidate's
// index within it, or (-1, -1).
func annulCandidate(g *cfg.Graph, bi int, m *machine.Model, rt *resource.Table) (int, int32) {
	branch := g.Blocks[bi].Block
	target := branch.Insts[branch.Len()-1].Target
	var ti = -1
	for _, s := range g.Blocks[bi].Succs {
		tb := g.Blocks[s].Block
		if tb.Len() > 0 && tb.Insts[0].Label == target {
			ti = s
			break
		}
	}
	if ti < 0 {
		return -1, -1
	}
	tn := g.Blocks[ti]
	if tn.HasUnknownPred || len(tn.Preds) != 1 || tn.Preds[0] != bi {
		return -1, -1
	}
	rt.PrepareBlock(tn.Block.Insts)
	d := dag.TableForward{}.Build(tn.Block, m, rt)
	c := d.Freeze()
	// Prefer the earliest root past position 0: hoisting the labeled
	// first instruction would orphan the label.
	for i := int32(1); i < int32(d.Len()); i++ {
		op := d.Nodes[i].Inst.Op
		if op.IsCTI() || op == isa.NOP || c.NumPreds(i) != 0 {
			continue
		}
		return ti, i
	}
	return -1, -1
}

// pickLeaf returns the latest non-CTI DAG leaf of the block, or -1.
// Latest is best: it is the instruction the surrounding schedule most
// recently decided could run last anyway.
func pickLeaf(d *dag.DAG) int32 {
	c := d.Freeze()
	for i := int32(d.Len()) - 2; i >= 0; i-- { // skip the CTI itself
		op := d.Nodes[i].Inst.Op
		if op.IsCTI() || op == isa.NOP {
			continue // moving a nop into a nop slot achieves nothing
		}
		if c.NumSuccs(i) == 0 {
			return i
		}
	}
	return -1
}
