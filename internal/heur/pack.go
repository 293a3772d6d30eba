package heur

import (
	"math/bits"

	"daginsched/internal/buf"
)

// Static priority packing. The engine's default ranking — Section 6's
// max path to a leaf, then max total delay to a leaf, then summed
// delays to children — reads only static annotations, all three of
// which the fused reverse CSR sweep computes. Packing each node's
// ranked values into one uint64 *while those values are hot* turns the
// scheduler's entire selection problem into unsigned integer
// comparisons: the scheduler keeps its ready list as a max-heap over
// the packed words and never evaluates a heuristic again.
//
// Word layout (most significant first), with each width taken from
// the block itself — w1..w3 are the bit lengths of the block's largest
// value of each field, wt the bit length of n-1:
//
//	max path length to a leaf   (rank 1, w1 bits)
//	max total delay to a leaf   (rank 2, w2 bits)
//	summed delays to children   (rank 3, w3 bits)
//	^node index                 (tiebreak, wt bits)
//	unused high bits            (64 - w1 - w2 - w3 - wt, zero)
//
// The fields sit flush against bit 0, so the word's value is the
// concatenation f1·f2·f3·(2^wt-1-i). Every field of every node of the
// block fits its width, so comparing two of the block's words as
// integers is exactly the ranked lexicographic comparison, and the
// complemented node index in the low bits folds the winnower's final
// min-index tiebreak into the same compare — two distinct nodes never
// pack to equal words, so any max-finding structure picks the same
// node the winnow path would. Words of different blocks are never
// compared. fpppp's 11,750-node block, whose max delay to a leaf is
// 21,949, needs 12+15+9+14 = 50 bits.
//
// The packing is only used when it is *exact*: no field negative and
// the four widths summing to at most 64 bits. A block outside either
// bound (PrioExact false) simply keeps the winnow path; schedules are
// byte-identical either way, which is what the engine's
// packed-selection identity gate enforces.

// PackedRankingKeys returns the ranked static keys a packed priority
// word encodes, most significant first. Selectors whose ranking equals
// this list (all Max-direction) can be served by packed comparisons.
func PackedRankingKeys() [3]Key {
	return [3]Key{MaxPathToLeaf, MaxDelayToLeaf, DelaysToChildren}
}

// PackSection6Prio fills PackedPrio from MaxPathToLeaf, MaxDelayToLeaf
// and SumDelayChild (which must already be computed) and reports
// whether the packing is exact. ComputeFusedCSR calls it as the tail
// of the fused sweep. After the separate passes (ComputeBackward,
// ComputeLocal) PrioExact is false until a caller packs explicitly, as
// perfbench's replay does; the engine's n² rung does not, and selects
// by winnowing.
//
//sched:noalloc
func (a *Annot) PackSection6Prio() bool {
	n := a.D.Len()
	a.PrioExact = false
	// OR-ing a field's values gives an integer with the same bit
	// length as its maximum, and a negative sign bit when any value is
	// negative.
	var or1, or2, or3 int32
	p1, p2, p3 := a.MaxPathToLeaf[:n], a.MaxDelayToLeaf[:n], a.SumDelayChild[:n]
	for i := range p1 {
		or1 |= p1[i]
		or2 |= p2[i]
		or3 |= p3[i]
	}
	if or1|or2|or3 < 0 {
		return false
	}
	wt := bits.Len(uint(max(n, 1) - 1))
	w3 := bits.Len32(uint32(or3))
	w2 := bits.Len32(uint32(or2))
	if bits.Len32(uint32(or1))+w2+w3+wt > 64 {
		return false
	}
	s3, s2, s1 := wt, wt+w3, wt+w3+w2
	tie := uint64(1)<<wt - 1
	a.PackedPrio = buf.Uint64(a.PackedPrio, n)
	for i := range p1 {
		a.PackedPrio[i] = uint64(p1[i])<<s1 |
			uint64(p2[i])<<s2 |
			uint64(p3[i])<<s3 |
			(tie - uint64(i))
	}
	a.PrioExact = true
	return true
}
