package dag

import "daginsched/internal/buf"

// CSR is the frozen compressed-sparse-row view of a built DAG: every
// successor arc as one packed 8-byte record (see packed.go) in a flat
// array grouped by source node, every predecessor arc in a second flat
// array grouped by target node, with n+1 offset arrays delimiting each
// node's span. Successor spans keep the Succs lists' insertion order;
// predecessor spans, the transpose of the Succs lists, list parents in
// ascending index. The hot heuristic and ready-list loops stream these
// contiguous half-size records instead of chasing n slice headers.
//
// Every builder freezes its DAG as its last step, and the view is
// immutable from then on. Its storage lives inside the DAG value, so
// arena-recycled DAGs recycle the CSR arrays too.
type CSR struct {
	succOff []int32 // len n+1; node i's successors are succPacked[succOff[i]:succOff[i+1]]
	predOff []int32 // len n+1; node i's predecessors are predPacked[predOff[i]:predOff[i+1]]

	succPacked []PackedArc
	predPacked []PackedArc

	// frozen records that freeze ran for the current block.
	frozen bool
}

// NumSuccs returns node i's successor count without touching the arc
// array.
func (c *CSR) NumSuccs(i int32) int32 { return c.succOff[i+1] - c.succOff[i] }

// NumPreds returns node i's predecessor count without touching the arc
// array.
func (c *CSR) NumPreds(i int32) int32 { return c.predOff[i+1] - c.predOff[i] }

// SuccSpan returns the half-open [lo, hi) range of node i's successors
// inside PackedSuccArcs.
func (c *CSR) SuccSpan(i int32) (lo, hi int32) { return c.succOff[i], c.succOff[i+1] }

// succs returns node i's packed successor records.
func (c *CSR) succs(i int32) []PackedArc { return c.succPacked[c.succOff[i]:c.succOff[i+1]] }

// PredSpan returns the half-open [lo, hi) range of node i's
// predecessors inside PackedPredArcs.
func (c *CSR) PredSpan(i int32) (lo, hi int32) { return c.predOff[i], c.predOff[i+1] }

// freeze packs d's Succs lists into c in O(n + m): one pass appends
// each node's arcs in index and insertion order and counts each
// child's parents, a prefix sum turns the counts into predOff, and a
// second pass scatters the packed successor records into their
// children's spans, parents in ascending order. The record is lossless
// (see packed.go), so every block packs.
//
//sched:noalloc
func (c *CSR) freeze(d *DAG) {
	c.frozen = true
	n, m := len(d.Nodes), d.NumArcs
	c.succOff = buf.Int32(c.succOff, n+1)
	c.predOff = buf.Int32(c.predOff, n+1)
	c.succPacked = growPacked(c.succPacked, m)
	c.predPacked = growPacked(c.predPacked, m)
	succOff, predOff, succs, preds := c.succOff, c.predOff, c.succPacked, c.predPacked
	k := int32(0)
	for i := range d.Nodes {
		succOff[i] = k
		for _, arc := range d.Nodes[i].Succs {
			succs[k] = PackArc(arc.To, arc.Kind, arc.Delay)
			k++
			predOff[arc.To+1]++
		}
	}
	succOff[n] = k
	for i := 0; i < n; i++ {
		predOff[i+1] += predOff[i]
	}
	// predOff[:n] serves as the write cursors; afterwards predOff[j]
	// holds the end of node j's span, so shifting it up one node
	// restores the starts.
	for i := int32(0); i < int32(n); i++ {
		for _, p := range succs[succOff[i]:succOff[i+1]] {
			to := p.Node()
			preds[predOff[to]] = p&^packedNodeMask | PackedArc(i)
			predOff[to]++
		}
	}
	copy(predOff[1:], predOff[:n])
	predOff[0] = 0
}

// Freeze returns the DAG's CSR view. Every builder freezes its DAG, so
// on a built DAG this is a flag check; only a DAG assembled by hand is
// frozen here. For arena-owned DAGs the view dies at the arena's next
// BuildInto.
//
//sched:noalloc
func (d *DAG) Freeze() *CSR {
	if !d.csr.frozen {
		d.csr.freeze(d)
	}
	return &d.csr
}
