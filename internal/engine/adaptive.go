// Adaptive builder dispatch and size-binned work distribution.
//
// The paper's Tables 4–5 regime result is that no single construction
// approach wins at every block size: compare-against-all (n²) has the
// lowest constant factors on tiny blocks — no per-resource table state
// to reset, no CSR freeze — while table building's O(n) arc discovery
// wins as blocks grow. The engine exploits that per block: sizes at or
// below a crossover threshold take the n²-direct pipeline (falling
// back to table building when the n² DAG is not transitive-free, which
// is what guarantees byte-identical schedules), everything else takes
// the fixed table+CSR pipeline.
//
// The crossover is machine-dependent, so by default it is measured
// once at engine construction by racing the two pipelines over a
// ladder of synthetic probe blocks (Config.Crossover overrides).
//
// Work distribution is size-binned too: blocks above smallCutoff are
// claimed one at a time, largest first (so a worker never strands a
// huge block at the tail of a run), and the small tail in chunks of
// chunkSize, cutting claim contention on corpora dominated by tiny
// blocks. Run prefills the claim queues that way (prefill); RunStream
// routes into the same queues online (stream.go).
package engine

import (
	"slices"
	"strconv"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/machine"
	"daginsched/internal/testgen"
)

// chunkSize is how many small blocks a worker claims at once.
const chunkSize = 32

// smallCutoff splits the distribution's two segments: blocks above it
// are claimed one at a time (they are individually long enough that a
// per-block atomic is noise), blocks at or below it are claimed in
// chunks. It coincides with dag.N2MaskCap, so every block the n²
// pipeline could possibly take lives in the chunked segment.
const smallCutoff = dag.N2MaskCap

// binBounds are the inclusive upper block sizes of the size bins
// Stats.Bins reports; the last bin is unbounded.
var binBounds = [...]int{4, 8, 16, 32, 64, 128, 512}

const nBins = len(binBounds) + 1

// binLabels name the bins in reports ("<=4" ... ">512").
var binLabels = func() [nBins]string {
	var l [nBins]string
	for i, b := range binBounds {
		l[i] = "<=" + strconv.Itoa(b)
	}
	l[nBins-1] = ">" + strconv.Itoa(binBounds[len(binBounds)-1])
	return l
}()

// binIndex maps a block size to its bin.
func binIndex(n int) int {
	for i, b := range binBounds {
		if n <= b {
			return i
		}
	}
	return nBins - 1
}

// blockPath tags which pipeline produced a block's schedule.
type blockPath uint8

const (
	pathTable  blockPath = iota // fixed table pipeline (incl. n² fallback)
	pathN2                      // n²-direct pipeline
	pathCached                  // schedule-cache hit, no pipeline run
)

// binAcc is one worker's running tally for one size bin.
type binAcc struct {
	blocks, insts     int64
	n2, table, cached int64
	nanos             int64
}

// binAdd records one finished block.
func (w *worker) binAdd(n int, nanos int64, path blockPath) {
	a := &w.bins[binIndex(n)]
	a.blocks++
	a.insts += int64(n)
	a.nanos += nanos
	switch path {
	case pathN2:
		a.n2++
	case pathCached:
		a.cached++
	default:
		a.table++
	}
}

// BinStats is one size bin's slice of a run: how many blocks landed in
// the bin, which pipeline scheduled them, and the bin's share of the
// summed per-block wall time.
type BinStats struct {
	Label        string  `json:"label"`
	Blocks       int64   `json:"blocks"`
	Insts        int64   `json:"insts"`
	N2Blocks     int64   `json:"n2_blocks"`
	TableBlocks  int64   `json:"table_blocks"`
	CachedBlocks int64   `json:"cached_blocks"`
	WallShare    float64 `json:"wall_share"`
	InstsPerSec  float64 `json:"insts_per_sec"`
}

// collectBins sums the crew's per-bin tallies into dst (recycled
// across runs once it has grown to nBins).
func (c *crew) collectBins(dst []BinStats) []BinStats {
	if cap(dst) < nBins {
		dst = make([]BinStats, nBins)
	}
	dst = dst[:nBins]
	var total int64
	for i := range dst {
		var acc binAcc
		for _, w := range c.workers {
			a := &w.bins[i]
			acc.blocks += a.blocks
			acc.insts += a.insts
			acc.n2 += a.n2
			acc.table += a.table
			acc.cached += a.cached
			acc.nanos += a.nanos
		}
		total += acc.nanos
		dst[i] = BinStats{
			Label:        binLabels[i],
			Blocks:       acc.blocks,
			Insts:        acc.insts,
			N2Blocks:     acc.n2,
			TableBlocks:  acc.table,
			CachedBlocks: acc.cached,
		}
		if acc.nanos > 0 {
			dst[i].InstsPerSec = float64(acc.insts) / (float64(acc.nanos) / 1e9)
		}
		dst[i].WallShare = float64(acc.nanos) // share computed below
	}
	for i := range dst {
		if total > 0 {
			dst[i].WallShare /= float64(total)
		} else {
			dst[i].WallShare = 0
		}
	}
	return dst
}

// prefill loads the crew's recycled claim queues from the batch in LPT
// order, largest first, so the tail of the run is the smallest work:
// the big blocks one per slot in exact size-descending order (the
// 11k-instruction giant starts first), then the small blocks chunkSize
// per slot, largest bin first. A counting sort over the size bins,
// stable by index, gives the order in O(n); only the big prefix,
// usually a handful of blocks, is sorted exactly. Closed channels
// cannot be reused, so prefill ends each queue with one end marker per
// crew worker — the zero value a closed channel yields — instead of
// closing it, which keeps a warm Run allocation-free. It first drains
// what a cancelled run left behind.
func (c *crew) prefill(blocks []*block.Block) *claimQueues {
	q := &c.q
	for range len(q.bigQ) {
		<-q.bigQ
	}
	for range len(q.smallQ) {
		<-q.smallQ
	}
	var counts, off [nBins]int
	for _, b := range blocks {
		counts[binIndex(b.Len())]++
	}
	pos := 0
	for bi := nBins - 1; bi >= 0; bi-- {
		off[bi] = pos
		pos += counts[bi]
	}
	items := slices.Grow(q.items[:0], len(blocks))[:len(blocks)]
	for i, b := range blocks {
		bi := binIndex(b.Len())
		items[off[bi]] = streamItem{seq: int64(i), b: b}
		off[bi]++
	}
	nBig := 0
	for bi := binIndex(smallCutoff) + 1; bi < nBins; bi++ {
		nBig += counts[bi]
	}
	slices.SortFunc(items[:nBig], func(x, y streamItem) int {
		if lx, ly := x.b.Len(), y.b.Len(); lx != ly {
			return ly - lx
		}
		return int(x.seq - y.seq)
	})
	q.items = items
	small := items[nBig:]
	nw := len(c.workers)
	if need := nBig + nw; cap(q.bigQ) < need {
		q.bigQ = make(chan streamItem, need)
	}
	if need := (len(small)+chunkSize-1)/chunkSize + nw; cap(q.smallQ) < need {
		q.smallQ = make(chan []streamItem, need)
	}
	for _, it := range items[:nBig] {
		q.bigQ <- it
	}
	for lo := 0; lo < len(small); lo += chunkSize {
		q.smallQ <- small[lo:min(lo+chunkSize, len(small))]
	}
	for range nw {
		q.bigQ <- streamItem{}
		q.smallQ <- nil
	}
	return q
}

// probeSizes is the calibration ladder: the sizes at which the two
// pipelines are raced to find the crossover.
var probeSizes = [...]int{2, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// calibrateWarmSize is the block size calibration feeds through the
// fixed pipeline before racing it: the table builder's per-block reset
// sweeps its *largest-ever* resource count, so on a mixed corpus a
// worker that has seen one big block pays a grown reset on every tiny
// block thereafter — exactly the cost the n²-direct pipeline avoids.
// Racing against a fresh (small) table would hide that cost and push
// the crossover far below its steady-state value.
const calibrateWarmSize = 512

// calibrateCrossover measures, on this machine and model, the largest
// probe size at which the n²-direct pipeline still beats the fixed
// table+CSR pipeline, scanning the ladder upward and stopping at the
// first loss. Dirty probe blocks charge the n² side its real fallback
// cost, so the measurement reflects dispatch behavior, not just clean
// construction. The probe runs in worker scratch (warming it as a side
// effect) and costs a few milliseconds, once, inside New.
func calibrateCrossover(w *worker, m *machine.Model) int {
	crossover := 0
	b := &block.Block{Name: "calibrate"}
	b.Insts = testgen.Block(11, calibrateWarmSize)
	for i := range b.Insts {
		b.Insts[i].Index = i
	}
	w.schedule(b, m) // grow the table state to mixed-corpus scale
	for _, n := range probeSizes {
		reps := 512 / n
		if reps < 4 {
			reps = 4
		}
		// Best-of-trials rejects scheduler and frequency noise: each
		// trial times one burst per pipeline (order alternating to
		// cancel drift) and only the fastest burst of each side counts.
		n2Best, tableBest := time.Duration(1<<62), time.Duration(1<<62)
		for trial := 0; trial < 4; trial++ {
			b.Insts = testgen.Block(int64(trial%2)*1000+int64(n), n)
			for i := range b.Insts {
				b.Insts[i].Index = i
			}
			w.scheduleN2(b, m) // warm both pipelines on this block
			w.schedule(b, m)
			for half := 0; half < 2; half++ {
				n2First := (trial+half)%2 == 0
				t0 := time.Now()
				for r := 0; r < reps; r++ {
					if n2First {
						w.scheduleN2(b, m)
					} else {
						w.schedule(b, m)
					}
				}
				d := time.Since(t0)
				if n2First {
					n2Best = min(n2Best, d)
				} else {
					tableBest = min(tableBest, d)
				}
			}
		}
		if n2Best > tableBest {
			break
		}
		crossover = n
	}
	return crossover
}
