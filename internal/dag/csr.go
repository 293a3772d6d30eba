package dag

import "daginsched/internal/buf"

// CSR is the frozen compressed-sparse-row view of a built DAG: every
// successor arc as one packed 8-byte record (see packed.go) in a flat
// array grouped by source node, every predecessor arc in a second flat
// array grouped by target node, with n+1 offset arrays delimiting each
// node's span. The per-node spans preserve the mirror slices'
// insertion order exactly, so any consumer that walks Succs/Preds
// produces bit-identical results walking the CSR view — only the
// memory layout changes: the hot heuristic and ready-list loops stream
// two contiguous arrays of half-size records instead of chasing n
// scattered slice headers.
//
// A CSR is built once per DAG by Freeze after construction completes
// and is immutable from then on (the same contract as the DAG itself).
// Its storage lives inside the DAG value, so arena-recycled DAGs
// recycle the CSR arrays too: ResetFor drops the frozen view and the
// next Freeze refills the same backing arrays.
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

// PredSpan returns the half-open [lo, hi) range of node i's
// predecessors inside PackedPredArcs.
func (c *CSR) PredSpan(i int32) (lo, hi int32) { return c.predOff[i], c.predOff[i+1] }

// freeze packs d's mirror slices into c: one O(n + m) pass over the
// nodes in index order, appending each node's arcs in their insertion
// order, which is exactly the grouping CSR requires. The record is
// lossless (see packed.go), so every block packs.
//
//sched:noalloc
func (c *CSR) freeze(d *DAG) {
	c.frozen = true
	n := len(d.Nodes)
	c.succOff = buf.Int32(c.succOff, n+1)
	c.predOff = buf.Int32(c.predOff, n+1)
	c.succPacked = growPacked(c.succPacked, d.NumArcs)
	c.predPacked = growPacked(c.predPacked, d.NumArcs)
	for i := range d.Nodes {
		nd := &d.Nodes[i]
		c.succOff[i] = int32(len(c.succPacked))
		for _, arc := range nd.Succs {
			//sched:lint-ignore noalloc growPacked reserved capacity for all NumArcs arcs above
			c.succPacked = append(c.succPacked, pack(arc.To, arc.Kind, arc.Delay))
		}
		c.predOff[i] = int32(len(c.predPacked))
		for _, arc := range nd.Preds {
			//sched:lint-ignore noalloc growPacked reserved capacity for all NumArcs arcs above
			c.predPacked = append(c.predPacked, pack(arc.From, arc.Kind, arc.Delay))
		}
	}
	c.succOff[n] = int32(len(c.succPacked))
	c.predOff[n] = int32(len(c.predPacked))
}

// Freeze builds the DAG's CSR view (once per block) and returns it;
// on a frozen DAG it is a flag check. Freeze may only be called after
// construction completes; the view is immutable and shares the DAG's
// lifetime — for arena-owned DAGs it is invalidated by the arena's
// next ResetFor/BuildInto, which also recycles the CSR's storage. The
// first call writes the view into the DAG, so a DAG shared across
// goroutines must be frozen before it is shared.
//
//sched:noalloc
func (d *DAG) Freeze() *CSR {
	if !d.csr.frozen {
		d.csr.freeze(d)
	}
	return &d.csr
}
