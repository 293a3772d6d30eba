package sched

import (
	"daginsched/internal/buf"
	"daginsched/internal/dag"
	"daginsched/internal/heur"
	"daginsched/internal/machine"
)

// Forward runs a forward list-scheduling pass: candidates are nodes
// whose parents are all scheduled; the selector ranks them; the chosen
// instruction issues at the earliest cycle its dependences, its
// function unit and the machine's issue width allow.
//
// A block-terminating CTI is pinned last — the effect the paper
// describes as connecting "all true leaves to the block-ending branch
// node to ensure that the branch is the last node to be scheduled",
// implemented here without distorting the DAG's structural statistics.
// The CTI's delay-slot instruction, if the block retains one, stays
// glued after it by the same mechanism.
func Forward(d *dag.DAG, m *machine.Model, a *heur.Annot, sel Selector) *Result {
	s := newState(d, m, a)
	forced := pinnedTail(d)
	if prio := packedPrioFor(s, sel); prio != nil {
		var h readyHeap
		forwardLoopPacked(s, prio, forced, &h, make([]int32, 0, 4))
	} else {
		forwardLoop(s, sel, forced, make([]int32, 0, 16), nil)
	}
	return s.result()
}

// packedPrioFor reports whether the selector's ranking can be served by
// the precomputed packed priority words: the annotation must have an
// exact packing for this block and the ranking must be exactly the
// packed key list, all in Max direction. When it returns non-nil the
// heap pick loop selects, at every step, the same node the winnowing
// (or exact priority-function) pick would — the packed word *is* the
// ranked lexicographic comparison with the min-index tiebreak.
//
//sched:noalloc
func packedPrioFor(s *State, sel Selector) []uint64 {
	a := s.A
	if a == nil || !a.PrioExact || len(a.PackedPrio) != s.D.Len() {
		return nil
	}
	want := heur.PackedRankingKeys()
	ks := sel.Keys()
	if len(ks) != len(want) {
		return nil
	}
	for i, rk := range ks {
		if rk.Min || rk.Key != want[i] {
			return nil
		}
	}
	return a.PackedPrio
}

// forwardLoopPacked is the packed-priority scheduling core: the ready
// list lives in an indexed max-heap keyed by the precomputed priority
// words, so each pick is O(log candidates) with zero heuristic
// evaluations. Pinned-tail nodes are parked on held and admitted only
// when the heap drains, mirroring forwardLoop's swap semantics exactly.
//
//sched:noalloc
func forwardLoopPacked(s *State, prio []uint64, forcedLast []bool, h *readyHeap, held []int32) []int32 {
	d := s.D
	n := int32(d.Len())
	h.reset(int(n))
	for i := int32(0); i < n; i++ {
		if s.unschedParents[i] == 0 {
			if forcedLast[i] {
				//sched:lint-ignore noalloc amortized: hold-list capacity is retained across blocks by the caller
				held = append(held, i)
			} else {
				h.admitLazy(i, prio[i])
			}
		}
	}
	h.heapify()
	c := s.csr
	packed := c != nil && c.HasPacked()
	for scheduled := int32(0); scheduled < n; scheduled++ {
		if h.len() == 0 {
			// Only pinned-tail nodes remain; release them.
			for _, i := range held {
				h.admitLazy(i, prio[i])
			}
			held = held[:0]
			h.heapify()
		}
		pick := h.pickMax()
		s.place(pick)
		if packed {
			lo, hi := c.SuccSpan(pick)
			pa := c.PackedSuccArcs()
			for _, p := range pa[lo:hi] {
				if to := p.Node(); s.unschedParents[to] == 0 {
					if forcedLast[to] {
						//sched:lint-ignore noalloc amortized: hold-list capacity is retained across blocks by the caller
						held = append(held, to)
					} else {
						h.admit(to, prio[to])
					}
				}
			}
			continue
		}
		for _, arc := range s.succs(pick) {
			if to := arc.To; s.unschedParents[to] == 0 {
				if forcedLast[to] {
					//sched:lint-ignore noalloc amortized: hold-list capacity is retained across blocks by the caller
					held = append(held, to)
				} else {
					h.admit(to, prio[to])
				}
			}
		}
	}
	return held
}

// forwardLoop is the forward list-scheduling core shared by Forward
// and Scratch.Forward. It schedules every node of s.D, drawing the
// candidate list and the pinned-tail hold list from the caller-
// provided buffers, and returns them (possibly regrown) so reusable
// callers can retain the capacity.
//
//sched:noalloc
func forwardLoop(s *State, sel Selector, forcedLast []bool, cands, held []int32) ([]int32, []int32) {
	d := s.D
	n := int32(d.Len())

	// The candidate list is maintained incrementally: a node enters when
	// its last unscheduled parent is placed. Rebuilding it per step
	// would make the scheduling pass quadratic in block size, which the
	// fpppp-sized blocks of Section 6 cannot afford.
	admit := func(i int32) {
		if forcedLast[i] {
			//sched:lint-ignore noalloc amortized: hold-list capacity is retained across blocks by the caller
			held = append(held, i)
		} else {
			//sched:lint-ignore noalloc amortized: candidate-list capacity is retained across blocks by the caller
			cands = append(cands, i)
		}
	}
	for i := int32(0); i < n; i++ {
		if s.unschedParents[i] == 0 {
			admit(i)
		}
	}
	for scheduled := int32(0); scheduled < n; scheduled++ {
		if len(cands) == 0 {
			// Only pinned-tail nodes remain.
			cands, held = held, cands
		}
		pick := sel.Pick(s, cands)
		for k, c := range cands {
			if c == pick {
				cands[k] = cands[len(cands)-1]
				cands = cands[:len(cands)-1]
				break
			}
		}
		s.place(pick)
		for _, arc := range s.succs(pick) {
			if s.unschedParents[arc.To] == 0 {
				admit(arc.To)
			}
		}
	}
	return cands, held
}

// pinnedTail marks the block-terminating CTI so it schedules last. Any
// trailing CTI in the block is pinned; everything else floats.
func pinnedTail(d *dag.DAG) []bool {
	return pinnedTailInto(make([]bool, d.Len()), d)
}

// pinnedTailInto is pinnedTail over a caller-provided (already
// false-filled) buffer of length d.Len().
func pinnedTailInto(pinned []bool, d *dag.DAG) []bool {
	if n := d.Len(); n > 0 && d.Nodes[n-1].Inst.Op.IsCTI() {
		pinned[n-1] = true
	}
	return pinned
}

// Scratch holds reusable scheduling state for the batch engine's hot
// path. Scratch.Forward is Forward with every piece of working storage
// — the State's slices, the candidate lists, the pinned-tail marks and
// the Result itself — recycled across calls, so scheduling a stream of
// same-scale blocks performs no steady-state allocations.
//
// The returned Result is owned by the Scratch and is invalidated by
// the next Forward call (its Order and Issue slices are the recycled
// state). Callers that keep schedules must copy them out. A Scratch is
// not safe for concurrent use; the engine gives each worker its own.
type Scratch struct {
	state       State
	cands, held []int32
	forced      []bool
	heap        readyHeap
	res         Result

	// DisablePacked restores the plain winnowing rescan in place of the
	// packed-priority heap, so runs reproduce the pre-packing selection
	// loop exactly: the reference configuration of the packed-selection
	// identity tests and of BenchmarkForwardPackedSel's winnow arm.
	DisablePacked bool
	usedPacked    bool
}

// UsedPacked reports whether the last Forward call selected through the
// packed-priority heap (vs. the winnowing rescan).
func (sc *Scratch) UsedPacked() bool { return sc.usedPacked }

// Forward is the reuse-aware equivalent of the package-level Forward.
// When the selector's ranking matches the block's exact packed priority
// words it dispatches to the heap pick loop; schedules are byte-
// identical on either path.
//
//sched:noalloc
func (sc *Scratch) Forward(d *dag.DAG, m *machine.Model, a *heur.Annot, sel Selector) *Result {
	s := &sc.state
	s.reset(d, m, a)
	sc.forced = pinnedTailInto(buf.Bool(sc.forced, d.Len()), d)
	sc.usedPacked = false
	if !sc.DisablePacked {
		if prio := packedPrioFor(s, sel); prio != nil {
			sc.usedPacked = true
			sc.held = forwardLoopPacked(s, prio, sc.forced, &sc.heap, sc.held[:0])
			s.finish(&sc.res)
			return &sc.res
		}
	}
	if cap(sc.cands) == 0 {
		sc.cands = make([]int32, 0, 16)
	}
	sc.cands, sc.held = forwardLoop(s, sel, sc.forced, sc.cands[:0], sc.held[:0])
	s.finish(&sc.res)
	return &sc.res
}

// place issues node pick at the earliest legal cycle and updates every
// dynamic heuristic input.
//
//sched:noalloc
func (s *State) place(pick int32) {
	in := s.D.Nodes[pick].Inst
	class := in.Class()
	at := s.EffectiveEET(pick)
	if at < s.time {
		at = s.time
	}
	// Issue-width and issue-group constraints within the current cycle.
	group := machine.IssueGroup(class)
	for {
		if at > s.time {
			// Advancing the clock opens a fresh cycle and invalidates the
			// selection memos (EffectiveEET caches outlive same-cycle picks).
			s.time, s.usedSlots, s.usedGroups = at, 0, 0
			s.memoGen++
		}
		if s.usedSlots < s.M.IssueWidth &&
			(s.M.IssueWidth == 1 || s.usedGroups&(1<<group) == 0) {
			break
		}
		at = s.time + 1
	}
	s.usedSlots++
	s.usedGroups |= 1 << group
	s.issue[pick] = at
	s.scheduled[pick] = true
	//sched:lint-ignore noalloc reset pre-sizes order to cap >= n, so n appends never grow it
	s.order = append(s.order, pick)
	s.last = pick
	// Occupy a function unit. Occupation changes what unitFree — and
	// therefore EffectiveEET — returns, so it bumps the memo generation.
	if units := s.unitBusy[class]; len(units) > 0 {
		_, ui := s.unitFree(class)
		units[ui] = at + int32(s.M.UnitBusy(in.Op))
		s.memoGen++
	}
	// Update children: unscheduled-parent counters and earliest
	// execution times. On a frozen DAG this is the scheduler's hottest
	// arc walk and runs over the packed 8-byte successor records —
	// half the memory traffic of the 16-byte arcs. A raised EET makes a
	// child's cached EffectiveEET stale, so its stamp is zeroed (the
	// dirty set is exactly the placed node's successor span).
	if c := s.csr; c != nil && c.HasPacked() {
		lo, hi := c.SuccSpan(pick)
		pa := c.PackedSuccArcs()
		for _, p := range pa[lo:hi] {
			to := p.Node()
			s.unschedParents[to]--
			if t := at + c.Delay(p); t > s.eet[to] {
				s.eet[to] = t
				s.effStamp[to] = 0
			}
		}
		return
	}
	for _, arc := range s.succs(pick) {
		s.unschedParents[arc.To]--
		if t := at + arc.Delay; t > s.eet[arc.To] {
			s.eet[arc.To] = t
			s.effStamp[arc.To] = 0
		}
	}
}

// result finalizes the schedule into a fresh Result.
func (s *State) result() *Result {
	r := new(Result)
	s.finish(r)
	return r
}

// finish fills r with the completed schedule. Order and Issue alias
// the state's slices, so r is only valid until the state's next reset.
func (s *State) finish(r *Result) {
	r.Order, r.Issue, r.Cycles = s.order, s.issue, 0
	for i, in := range s.D.Nodes {
		if s.issue[i] < 0 {
			continue
		}
		if fin := s.issue[i] + int32(s.M.Latency(in.Inst.Op)); fin > r.Cycles {
			r.Cycles = fin
		}
	}
}

// Backward runs a backward list-scheduling pass (Tiemann, Schlansker):
// candidates are nodes whose children are all scheduled; the selector
// ranks them; the resulting reverse order is then timed with one
// forward placement pass so Result carries real issue cycles.
func Backward(d *dag.DAG, m *machine.Model, a *heur.Annot, sel Selector) *Result {
	s := newState(d, m, a)
	n := int32(d.Len())
	rev := make([]int32, 0, n)
	picked := make([]bool, n)
	// Pin the trailing CTI first so it lands last in program order.
	if n > 0 && d.Nodes[n-1].Inst.Op.IsCTI() {
		rev = append(rev, n-1)
		picked[n-1] = true
		s.last = n - 1
		for _, arc := range s.preds(n - 1) {
			s.unschedKids[arc.From]--
		}
	}
	cands := make([]int32, 0, 16)
	for i := int32(0); i < n; i++ {
		if !picked[i] && s.unschedKids[i] == 0 {
			cands = append(cands, i)
		}
	}
	for int32(len(rev)) < n {
		pick := sel.Pick(s, cands)
		for k, c := range cands {
			if c == pick {
				cands[k] = cands[len(cands)-1]
				cands = cands[:len(cands)-1]
				break
			}
		}
		picked[pick] = true
		rev = append(rev, pick)
		s.last = pick
		for _, arc := range s.preds(pick) {
			if s.unschedKids[arc.From]--; s.unschedKids[arc.From] == 0 {
				cands = append(cands, arc.From)
			}
		}
	}
	order := make([]int32, n)
	for i, node := range rev {
		order[n-1-int32(i)] = node
	}
	return Timed(d, m, order)
}

// Timed places an already-ordered instruction sequence on the machine's
// issue model and returns the timing. It is also the evaluator the
// post-pass fixup and the tests use to score schedules.
func Timed(d *dag.DAG, m *machine.Model, order []int32) *Result {
	s := newState(d, m, nil)
	for _, i := range order {
		s.place(i)
	}
	return s.result()
}

// InOrder returns the timing of the block's original instruction order —
// the baseline every scheduling algorithm is compared against.
func InOrder(d *dag.DAG, m *machine.Model) *Result {
	order := make([]int32, d.Len())
	for i := range order {
		order[i] = int32(i)
	}
	return Timed(d, m, order)
}

// Legal reports whether a schedule respects every DAG arc's ordering
// (parents before children in Order) and covers each node exactly once.
func Legal(d *dag.DAG, r *Result) bool {
	if len(r.Order) != d.Len() {
		return false
	}
	pos := make([]int32, d.Len())
	seen := make([]bool, d.Len())
	for p, node := range r.Order {
		if node < 0 || int(node) >= d.Len() || seen[node] {
			return false
		}
		seen[node] = true
		pos[node] = int32(p)
	}
	for i := range d.Nodes {
		for _, arc := range d.Nodes[i].Succs {
			if pos[arc.From] >= pos[arc.To] {
				return false
			}
		}
	}
	return true
}

// CTILast reports whether the block-ending CTI (if any) stays last.
func CTILast(d *dag.DAG, r *Result) bool {
	n := d.Len()
	if n == 0 || !d.Nodes[n-1].Inst.Op.IsCTI() {
		return true
	}
	return len(r.Order) == n && r.Order[n-1] == int32(n-1)
}
