// Run's work source and the size-binned work distribution.
//
// Every fresh block takes the one pipeline (prepare → backward table
// building → freeze → fused sweep → packed select → gate; see
// engine.go), whatever its size; the paper's Tables 4–5 find table
// building linear in block size, and the table state's reset follows
// the block's own resources, so no size regime needs a second builder.
//
// Work distribution is size-binned: blocks above smallCutoff are
// claimed one at a time and the small tail in chunks of chunkSize,
// cutting claim contention on corpora dominated by tiny blocks. Run
// orders its batch largest first (prefill), so a worker never strands
// a huge block at the tail of a run, and claims it through two atomic
// cursors (batchSource); RunSource's claimers chunk src as they pull
// it, and RunStream, its channel adapter, chunks the channel the same
// way (stream.go). Stats.Bins breaks a run down by the same size bins.
package engine

import (
	"slices"
	"strconv"
	"sync/atomic"

	"daginsched/internal/block"
)

// chunkSize is how many small blocks a worker claims at once.
const chunkSize = 32

// smallCutoff is the claim granularity's split: blocks above it are
// claimed one at a time (each is long enough that a per-block atomic
// is noise), blocks at or below it in chunks of chunkSize.
const smallCutoff = 64

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

// binAcc is one worker's running tally for one size bin.
type binAcc struct {
	blocks, insts, cached, nanos int64
}

// binAdd records one finished block: scheduled by the pipeline, or
// served from the cache.
func (w *worker) binAdd(n int, nanos int64, cached bool) {
	a := &w.bins[binIndex(n)]
	a.blocks++
	a.insts += int64(n)
	a.nanos += nanos
	if cached {
		a.cached++
	}
}

// BinStats is one size bin's slice of a run: how many blocks landed in
// the bin, how many of them the cache served, and the bin's share of
// the summed per-block wall time.
type BinStats struct {
	Label        string  `json:"label"`
	Blocks       int64   `json:"blocks"`
	Insts        int64   `json:"insts"`
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
			acc.cached += a.cached
			acc.nanos += a.nanos
		}
		total += acc.nanos
		dst[i] = BinStats{
			Label:        binLabels[i],
			Blocks:       acc.blocks,
			Insts:        acc.insts,
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

// batchSource is Run's work source: the batch in LPT order (see
// prefill), claimed through two atomic cursors — big over the big
// prefix, one block per claim, and small over the tail, chunkSize
// blocks per claim — so a claim takes no lock.
type batchSource struct {
	items      []streamItem
	nBig       int64
	big, small atomic.Int64
}

// next claims the next big block while any is left, then the next
// chunk of the small tail.
func (s *batchSource) next([]streamItem, <-chan struct{}) []streamItem {
	if s.big.Load() < s.nBig {
		if i := s.big.Add(1) - 1; i < s.nBig {
			return s.items[i : i+1]
		}
	}
	n := int64(len(s.items))
	lo := s.small.Add(chunkSize) - chunkSize
	if lo >= n {
		return nil
	}
	return s.items[lo:min(lo+chunkSize, n)]
}

// prefill loads the crew's recycled batch source in LPT order, largest
// first, so the tail of the run is the smallest work: the big blocks
// in exact size-descending order (the 11k-instruction giant starts
// first), then the small blocks, largest bin first. A counting sort
// over the size bins, stable by index, gives the order in O(n); only
// the big prefix, usually a handful of blocks, is sorted exactly.
func (c *crew) prefill(blocks []*block.Block) *batchSource {
	s := &c.batch
	var counts, off [nBins]int
	for _, b := range blocks {
		counts[binIndex(b.Len())]++
	}
	pos := 0
	for bi := nBins - 1; bi >= 0; bi-- {
		off[bi] = pos
		pos += counts[bi]
	}
	items := slices.Grow(s.items[:0], len(blocks))[:len(blocks)]
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
	s.items = items
	s.nBig = int64(nBig)
	s.big.Store(0)
	s.small.Store(int64(nBig))
	return s
}
