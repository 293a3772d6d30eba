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
//	bits  0..30  peer node index (To in the succ array, From in pred)
//	bits 31..61  arc delay
//	bits 62..63  DepKind (RAW/WAR/WAW)
//
// The peer field holds every index an int32 Arc endpoint can name and
// the delay field every delay Validate accepts (1 to 2^31-1), so the
// record is lossless for every DAG a builder can produce: every block
// freezes, and encode and decode are shifts and masks with no branch.
type PackedArc uint64

const (
	packedNodeBits  = 31
	packedDelayBits = 31
	packedKindShift = packedNodeBits + packedDelayBits // 62

	packedNodeMask  = 1<<packedNodeBits - 1
	packedDelayMask = 1<<packedDelayBits - 1
)

// pack encodes one arc for its owner's span: peer is the other
// endpoint.
//
//sched:noalloc
func pack(peer int32, kind DepKind, delay int32) PackedArc {
	return PackedArc(uint64(peer) | uint64(delay)<<packedNodeBits | uint64(kind)<<packedKindShift)
}

// Node returns the record's explicit endpoint: the child (To) for a
// successor record, the parent (From) for a predecessor record.
//
//sched:noalloc
func (p PackedArc) Node() int32 { return int32(p & packedNodeMask) }

// Delay returns the arc delay.
//
//sched:noalloc
func (p PackedArc) Delay() int32 { return int32(p >> packedNodeBits & packedDelayMask) }

// Kind returns the dependence kind.
//
//sched:noalloc
func (p PackedArc) Kind() DepKind { return DepKind(p >> packedKindShift) }

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

// growPacked returns an empty []PackedArc with capacity for at least n
// records, reusing s's backing array when possible.
func growPacked(s []PackedArc, n int) []PackedArc {
	if cap(s) < n {
		return make([]PackedArc, 0, n)
	}
	return s[:0]
}
