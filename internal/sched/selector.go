package sched

import (
	"fmt"
	"sync"

	"daginsched/internal/heur"
)

// RankedKey is one heuristic in an algorithm's ranked list. Min selects
// inverse use (smaller is better), e.g. Shieh & Papachristou's
// #parents, or every earliest/latest-time heuristic.
type RankedKey struct {
	Key heur.Key
	Min bool
}

// Value evaluates heuristic k for candidate i against the live state.
// Values are raw (not direction-adjusted); selectors apply Min.
// Static keys read the Annot, dynamic keys the State.
func (s *State) Value(k heur.Key, i int32) int64 {
	a := s.A
	switch k {
	case heur.InterlockWithPrev:
		return bool64(s.InterlocksWithPrev(i))
	case heur.EarliestExecTime:
		return int64(s.EffectiveEET(i))
	case heur.InterlockChild:
		return bool64(a.InterlockChild[i])
	case heur.ExecTime:
		return int64(a.ExecTime[i])
	case heur.AlternateType:
		return bool64(s.AlternatesType(i))
	case heur.FPUBusy:
		return int64(s.FPUBusyPenalty(i))
	case heur.MaxPathToLeaf:
		return int64(a.MaxPathToLeaf[i])
	case heur.MaxDelayToLeaf:
		return int64(a.MaxDelayToLeaf[i])
	case heur.MaxPathFromRoot:
		return int64(a.MaxPathFromRoot[i])
	case heur.MaxDelayFromRoot:
		return int64(a.MaxDelayFromRoot[i])
	case heur.EarliestStart:
		return int64(a.EST[i])
	case heur.LatestStart:
		return int64(a.LST[i])
	case heur.Slack:
		return int64(a.Slack[i])
	case heur.NumChildren:
		return int64(len(s.succs(i)))
	case heur.DelaysToChildren:
		return int64(a.SumDelayChild[i])
	case heur.NumSingleParent:
		return int64(s.NumSingleParentChildren(i))
	case heur.DelaysSingleP:
		return int64(s.SumDelaysToSingleParentChildren(i))
	case heur.NumUncovered:
		return int64(s.NumUncoveredChildren(i))
	case heur.NumParents:
		return int64(len(s.preds(i)))
	case heur.DelaysFromParents:
		return int64(a.SumDelayParent[i])
	case heur.NumDescendants:
		return int64(a.NumDesc[i])
	case heur.SumExecDesc:
		return int64(a.SumExecDesc[i])
	case heur.RegsBorn:
		return int64(a.RegsBorn[i])
	case heur.RegsKilled:
		return int64(a.RegsKilled[i])
	case heur.Liveness:
		return int64(a.Liveness[i])
	case heur.Birthing:
		return bool64(s.IsBirthing(i))
	case heur.OriginalOrder:
		return int64(i)
	}
	panic(fmt.Sprintf("sched: unknown heuristic key %q", k))
}

func bool64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Selector picks the next instruction from the candidate list.
type Selector interface {
	// Pick returns the chosen node. cands is non-empty; the slice may be
	// reordered but not retained.
	Pick(s *State, cands []int32) int32
	// Keys returns the ranked heuristics, for Table 2 reporting.
	Keys() []RankedKey
}

// Winnow applies its heuristics "in a given order in a winnowing-like
// process": each key filters the survivors to those achieving the best
// value; ties after the last key break toward original program order
// (forward scheduling) so schedules are deterministic.
type Winnow []RankedKey

// Keys implements Selector.
func (w Winnow) Keys() []RankedKey { return w }

// winnowBufs recycles survivor double buffers for the selectors that
// don't own persistent ones (value-typed Winnow and Priority's long-
// ranking fallback), so casual picks stop allocating two fresh buffers
// apiece.
var winnowBufs = sync.Pool{New: func() any { return new([2][]int32) }}

// Pick implements Selector. The input slice is read-only: survivors are
// winnowed through pooled double buffers, so callers may maintain cands
// incrementally across picks.
func (w Winnow) Pick(s *State, cands []int32) int32 {
	bufs := winnowBufs.Get().(*[2][]int32)
	pick := winnowPick(s, w, cands, bufs)
	winnowBufs.Put(bufs)
	return pick
}

// winnowPick is the winnowing core shared by Winnow (pooled buffers)
// and PooledWinnow (persistent buffers). bufs holds the two survivor
// double buffers; their grown capacity is retained via the pointer so
// pooled callers allocate nothing in steady state.
func winnowPick(s *State, ranked []RankedKey, live []int32, bufs *[2][]int32) int32 {
	for ki, rk := range ranked {
		if len(live) == 1 {
			break
		}
		best := adjusted(s, rk, live[0])
		for _, c := range live[1:] {
			if v := adjusted(s, rk, c); v > best {
				best = v
			}
		}
		dst := bufs[ki%2][:0]
		for _, c := range live {
			if adjusted(s, rk, c) == best {
				dst = append(dst, c)
			}
		}
		bufs[ki%2] = dst
		live = dst
	}
	return minIndex(live)
}

// PooledWinnow is Winnow with persistent survivor buffers: picks are
// identical, but the double buffers grow once to the largest candidate
// list and are then recycled, keeping the batch engine's selection loop
// allocation-free. Not safe for concurrent use — one per worker.
type PooledWinnow struct {
	ranked []RankedKey
	bufs   [2][]int32
}

// NewPooledWinnow returns a pooled selector over the given ranked keys.
func NewPooledWinnow(ranked []RankedKey) *PooledWinnow {
	return &PooledWinnow{ranked: ranked}
}

// Keys implements Selector.
func (p *PooledWinnow) Keys() []RankedKey { return p.ranked }

// Pick implements Selector.
func (p *PooledWinnow) Pick(s *State, cands []int32) int32 {
	return winnowPick(s, p.ranked, cands, &p.bufs)
}

// Section6Ranked returns the heuristic ranking of the paper's Section 6
// timing study: maximum path length to a leaf, then maximum delay to a
// leaf, then total delays to children.
func Section6Ranked() []RankedKey {
	return []RankedKey{
		{Key: heur.MaxPathToLeaf},
		{Key: heur.MaxDelayToLeaf},
		{Key: heur.DelaysToChildren},
	}
}

// Priority combines its ranked heuristics "into a single priority value
// per node": each key's value is clamped into a fixed-width bit field
// and the fields are packed most-significant-first, so comparing the
// packed integers is exactly the ranked lexicographic comparison.
type Priority []RankedKey

// fieldBits is the per-key field width; values are clamped to fit.
// Four keys of 15 bits (plus sign handling) fit comfortably in int64.
const fieldBits = 15

// Keys implements Selector.
func (p Priority) Keys() []RankedKey { return p }

// Pick implements Selector.
func (p Priority) Pick(s *State, cands []int32) int32 {
	if len(p) > 4 {
		// More than four ranked keys cannot pack into one int64 field
		// set; fall back to the equivalent winnowing comparison (through
		// the shared buffer pool, so long rankings don't allocate fresh
		// survivor buffers on every pick).
		return Winnow(p).Pick(s, cands)
	}
	bestN := int32(-1)
	var bestV int64
	for _, c := range cands {
		v := p.value(s, c)
		if bestN < 0 || v > bestV || (v == bestV && c < bestN) {
			bestN, bestV = c, v
		}
	}
	return bestN
}

// value packs the candidate's priority fields.
func (p Priority) value(s *State, i int32) int64 {
	const half = int64(1) << (fieldBits - 1)
	var v int64
	for _, rk := range p {
		f := adjusted(s, rk, i) + half // bias into unsigned field range
		if f < 0 {
			f = 0
		}
		if f >= 1<<fieldBits {
			f = 1<<fieldBits - 1
		}
		v = v<<fieldBits | f
	}
	return v
}

// adjusted returns the direction-corrected value: larger is better.
func adjusted(s *State, rk RankedKey, i int32) int64 {
	v := s.Value(rk.Key, i)
	if rk.Min {
		return -v
	}
	return v
}

func minIndex(xs []int32) int32 {
	best := xs[0]
	for _, x := range xs[1:] {
		if x < best {
			best = x
		}
	}
	return best
}
