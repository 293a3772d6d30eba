package dag

// Packed CSR arc records: the frozen CSR's only arc layout. Its two
// flat arc arrays are the hottest memory in the repo — the scheduler's
// place() successor walk and the fused reverse heuristic sweep stream
// them once per block. Inside a CSR span one of the endpoints is
// implicit: the successor array is grouped by From and the predecessor
// array by To, so each record only needs the *other* endpoint. Packing
// that endpoint, the delay and the kind into a single uint64 halves the
// bytes of a 16-byte dag.Arc.
//
// Record layout (low bit first):
//
//	bits  0..20  peer node index (To in the succ array, From in pred)
//	bits 21..36  arc delay, or the spill-table index when bit 39 is set
//	bits 37..38  DepKind (RAW/WAR/WAW)
//	bit  39      spill flag: delay did not fit 16 bits, read the table
//	bits 40..63  zero
//
// Delays on real machine models are single-digit cycles, so the spill
// table is almost always empty; it exists so the packed view never has
// to lie about a pathological arc. A block with more than
// PackedMaxNodes instructions, or with more oversize delays than the
// 16-bit spill index can address, is not frozen at all: Freeze returns
// nil and consumers read the Succs/Preds mirrors.
type PackedArc uint64

const (
	packedNodeBits  = 21
	packedDelayBits = 16
	packedKindShift = packedNodeBits + packedDelayBits // 37
	packedSpillBit  = PackedArc(1) << 39

	packedNodeMask  = 1<<packedNodeBits - 1
	packedDelayMask = 1<<packedDelayBits - 1

	// PackedMaxNodes is the largest node count the packed record's peer
	// field can address; bigger blocks are not frozen.
	PackedMaxNodes = 1 << packedNodeBits

	// packedMaxSpills bounds the spill table: the delay field doubles as
	// the spill index, so it has the same width as a delay.
	packedMaxSpills = 1 << packedDelayBits
)

// pack encodes one arc for its owner's span: peer is the other
// endpoint. An oversize delay is appended to the spill table; ok is
// false once the table's 16-bit index is exhausted.
//
//sched:noalloc
func (c *CSR) pack(peer int32, kind DepKind, delay int32) (p PackedArc, ok bool) {
	p = PackedArc(uint64(peer) | uint64(kind)<<packedKindShift)
	if uint32(delay) <= packedDelayMask {
		return p | PackedArc(uint64(delay)<<packedNodeBits), true
	}
	if len(c.spill) == packedMaxSpills {
		return 0, false
	}
	p |= packedSpillBit | PackedArc(uint64(len(c.spill))<<packedNodeBits)
	//sched:lint-ignore noalloc oversize-delay spills are a pathological fault path, never the steady state
	c.spill = append(c.spill, delay)
	return p, true
}

// Node returns the record's explicit endpoint: the child (To) for a
// successor record, the parent (From) for a predecessor record.
//
//sched:noalloc
func (p PackedArc) Node() int32 { return int32(p & packedNodeMask) }

// Kind returns the dependence kind.
//
//sched:noalloc
func (p PackedArc) Kind() DepKind { return DepKind(p >> packedKindShift & 0b11) }

// PackedSuccArcs returns the packed successor-arc array (every arc,
// grouped by From in ascending node order); index it with SuccSpan.
//
//sched:noalloc
func (c *CSR) PackedSuccArcs() []PackedArc { return c.succPacked }

// PackedPredArcs returns the packed predecessor-arc array (every arc,
// grouped by To in ascending node order); index it with PredSpan.
//
//sched:noalloc
func (c *CSR) PackedPredArcs() []PackedArc { return c.predPacked }

// Delay decodes a packed record's arc delay, following the spill table
// on the (rare) oversize record.
//
//sched:noalloc
func (c *CSR) Delay(p PackedArc) int32 {
	v := int32(p >> packedNodeBits & packedDelayMask)
	if p&packedSpillBit == 0 {
		return v
	}
	return c.spill[v]
}

// growPacked returns an empty []PackedArc with capacity for at least n
// records, reusing s's backing array when possible.
func growPacked(s []PackedArc, n int) []PackedArc {
	if cap(s) < n {
		return make([]PackedArc, 0, n)
	}
	return s[:0]
}
