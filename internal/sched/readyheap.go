package sched

// readyHeap is the packed-priority ready list: a binary max-heap over
// the per-node packed priority words (heur.PackedPrio). Admitting a
// freshly uncovered candidate and extracting the best one are both
// O(log candidates) with zero heuristic evaluations — the winnow
// path's per-pick rescan of every candidate through every ranked key
// becomes a handful of uint64 compares.
//
// Invariants:
//
//   - key[k] >= key[2k+1] and key[k] >= key[2k+2] (max-heap order);
//     node[k] is the node whose packed word key[k] is.
//   - Packed words are distinct across nodes (the low bits carry the
//     complemented node index), so the heap's max is unique and pick
//     order is deterministic regardless of sift history.
//
// The two slices are recycled across blocks by reset; a Scratch owns
// one heap per worker, keeping the steady-state admit/pick path
// allocation-free.
type readyHeap struct {
	key  []uint64
	node []int32
}

// reset empties the heap for a new block, recycling capacity.
//
//sched:noalloc
func (h *readyHeap) reset() {
	h.key = h.key[:0]
	h.node = h.node[:0]
}

// admit inserts node i with packed priority k.
//
//sched:noalloc
func (h *readyHeap) admit(i int32, k uint64) {
	h.admitLazy(i, k)
	h.siftUp(len(h.key) - 1)
}

// admitLazy appends node i without restoring heap order; the caller
// must heapify before the next pick. Batching the block-start fill
// this way replaces k sift-ups with one O(k) Floyd pass.
//
//sched:noalloc
func (h *readyHeap) admitLazy(i int32, k uint64) {
	//sched:lint-ignore noalloc amortized: heap capacity is retained across blocks by the owning Scratch
	h.key = append(h.key, k)
	//sched:lint-ignore noalloc amortized: heap capacity is retained across blocks by the owning Scratch
	h.node = append(h.node, i)
}

// heapify restores max-heap order over the whole array in O(n).
//
//sched:noalloc
func (h *readyHeap) heapify() {
	for p := len(h.key)/2 - 1; p >= 0; p-- {
		h.siftDown(p)
	}
}

// pickMax removes and returns the node with the largest packed word —
// the same node the winnow path would select.
//
//sched:noalloc
func (h *readyHeap) pickMax() int32 {
	best := h.node[0]
	last := len(h.key) - 1
	h.key[0], h.node[0] = h.key[last], h.node[last]
	h.key, h.node = h.key[:last], h.node[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return best
}

//sched:noalloc
func (h *readyHeap) siftUp(p int) {
	k, n := h.key[p], h.node[p]
	for p > 0 {
		parent := (p - 1) / 2
		if h.key[parent] >= k {
			break
		}
		h.key[p], h.node[p] = h.key[parent], h.node[parent]
		p = parent
	}
	h.key[p], h.node[p] = k, n
}

//sched:noalloc
func (h *readyHeap) siftDown(p int) {
	k, n := h.key[p], h.node[p]
	size := len(h.key)
	for {
		c := 2*p + 1
		if c >= size {
			break
		}
		if r := c + 1; r < size && h.key[r] > h.key[c] {
			c = r
		}
		if k >= h.key[c] {
			break
		}
		h.key[p], h.node[p] = h.key[c], h.node[c]
		p = c
	}
	h.key[p], h.node[p] = k, n
}
