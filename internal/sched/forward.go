package sched

import (
	"daginsched/internal/dag"
	"daginsched/internal/heur"
	"daginsched/internal/machine"
)

// Forward runs a forward list-scheduling pass: candidates are nodes
// whose parents are all scheduled; the selector ranks them; the chosen
// instruction issues at the earliest cycle its dependences, its
// function unit and the machine's issue width allow.
//
// A block-terminating CTI is placed last — the effect the paper
// describes as connecting "all true leaves to the block-ending branch
// node to ensure that the branch is the last node to be scheduled",
// implemented here without distorting the DAG's structural statistics
// (see ctiTail).
//
// Every scheduler in this package walks the DAG's frozen CSR view, so
// the first schedule of a DAG freezes it (d.Freeze), writing the view
// into the DAG as d.Reachability caches d.Reach. A caller that shares
// one DAG across goroutines must Freeze it before sharing it.
func Forward(d *dag.DAG, m *machine.Model, a *heur.Annot, sel Selector) *Result {
	return new(Scratch).Forward(d, m, a, sel)
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

// ctiTail returns the index of the block-ending CTI, the branch every
// scheduler in this package places last, or d.Len() when the block does
// not end in a CTI. Every arc points forward, so that node has no
// children: the schedulers order the nodes before it by selection and
// place it afterwards, and it never sits in a ready list.
//
//sched:noalloc
func ctiTail(d *dag.DAG) int32 {
	n := int32(d.Len())
	if n > 0 && d.Nodes[n-1].Inst.Op.IsCTI() {
		return n - 1
	}
	return n
}

// forwardLoopPacked is the packed-priority scheduling core: the ready
// list is a max-heap keyed by the precomputed priority words, so each
// pick is O(log candidates) with zero heuristic evaluations.
//
//sched:noalloc
func forwardLoopPacked(s *State, prio []uint64, h *readyHeap) {
	n, tail := int32(s.D.Len()), ctiTail(s.D)
	h.reset()
	for i := int32(0); i < tail; i++ {
		if s.unschedParents[i] == 0 {
			h.admitLazy(i, prio[i])
		}
	}
	h.heapify()
	for scheduled := int32(0); scheduled < tail; scheduled++ {
		pick := h.pickMax()
		s.place(pick)
		for _, p := range s.succs(pick) {
			if to := p.Node(); to < tail && s.unschedParents[to] == 0 {
				h.admit(to, prio[to])
			}
		}
	}
	if tail < n {
		s.place(tail)
	}
}

// forwardLoop is the forward list-scheduling core shared by
// Scratch.Forward (so Forward) and ForwardWithCarry. It schedules
// every node of s.D, drawing the candidate list from the caller's
// buffer, and returns it (possibly regrown) so reusable callers can
// retain the capacity.
//
//sched:noalloc
func forwardLoop(s *State, sel Selector, cands []int32) []int32 {
	n, tail := int32(s.D.Len()), ctiTail(s.D)
	// The candidate list is maintained incrementally: a node enters when
	// its last unscheduled parent is placed. Rebuilding it per step
	// would make the scheduling pass quadratic in block size, which the
	// fpppp-sized blocks of Section 6 cannot afford.
	for i := int32(0); i < tail; i++ {
		if s.unschedParents[i] == 0 {
			//sched:lint-ignore noalloc amortized: candidate-list capacity is retained across blocks by the caller
			cands = append(cands, i)
		}
	}
	for scheduled := int32(0); scheduled < tail; scheduled++ {
		pick := sel.Pick(s, cands)
		for k, c := range cands {
			if c == pick {
				cands[k] = cands[len(cands)-1]
				cands = cands[:len(cands)-1]
				break
			}
		}
		s.place(pick)
		for _, p := range s.succs(pick) {
			if to := p.Node(); to < tail && s.unschedParents[to] == 0 {
				//sched:lint-ignore noalloc amortized: candidate-list capacity is retained across blocks by the caller
				cands = append(cands, to)
			}
		}
	}
	if tail < n {
		s.place(tail)
	}
	return cands
}

// Scratch holds reusable scheduling state for the batch engine's hot
// path. Scratch.Forward is Forward with every piece of working storage
// — the State's slices (the winnowing survivor buffers among them),
// the candidate list, the ready heap and the Result itself — recycled
// across calls, so scheduling a stream of same-scale blocks performs
// no steady-state allocations.
//
// The returned Result is owned by the Scratch and is invalidated by
// the next Forward call (its Order and Issue slices are the recycled
// state). Callers that keep schedules must copy them out. A Scratch is
// not safe for concurrent use; the engine gives each worker its own.
type Scratch struct {
	state      State
	cands      []int32
	heap       readyHeap
	res        Result
	usedPacked bool
}

// UsedPacked reports whether the last Forward call selected through the
// packed-priority heap (vs. the selector's own Pick).
func (sc *Scratch) UsedPacked() bool { return sc.usedPacked }

// Forward is the reuse-aware equivalent of the package-level Forward.
// When the selector's ranking matches the block's exact packed priority
// words it dispatches to the heap pick loop; schedules are byte-
// identical on either path. Like Forward, it freezes d on first use.
//
//sched:noalloc
func (sc *Scratch) Forward(d *dag.DAG, m *machine.Model, a *heur.Annot, sel Selector) *Result {
	s := &sc.state
	s.reset(d, m, a)
	prio := packedPrioFor(s, sel)
	sc.usedPacked = prio != nil
	if prio != nil {
		forwardLoopPacked(s, prio, &sc.heap)
	} else {
		sc.cands = forwardLoop(s, sel, sc.cands[:0])
	}
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
	// execution times. This is the scheduler's hottest arc walk. A
	// raised EET makes a child's cached EffectiveEET stale, so its stamp
	// is zeroed (the dirty set is exactly the placed node's successor
	// span).
	for _, p := range s.succs(pick) {
		to := p.Node()
		s.unschedParents[to]--
		if t := at + p.Delay(); t > s.eet[to] {
			s.eet[to] = t
			s.effStamp[to] = 0
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
// forward placement pass so Result carries real issue cycles. Like
// Forward, it freezes d on first use.
func Backward(d *dag.DAG, m *machine.Model, a *heur.Annot, sel Selector) *Result {
	s := newState(d, m, a)
	n := int32(d.Len())
	rev := make([]int32, 0, n)
	picked := make([]bool, n)
	// Pin the trailing CTI first so it lands last in program order.
	if ctiTail(d) < n {
		rev = append(rev, n-1)
		picked[n-1] = true
		s.last = n - 1
		for _, p := range s.preds(n - 1) {
			s.unschedKids[p.Node()]--
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
		for _, p := range s.preds(pick) {
			from := p.Node()
			if s.unschedKids[from]--; s.unschedKids[from] == 0 {
				cands = append(cands, from)
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
// post-pass fixup and the tests use to score schedules. Like Forward,
// it freezes d on first use.
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
