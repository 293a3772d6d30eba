package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"daginsched/internal/asm"
	"daginsched/internal/block"
	"daginsched/internal/diskcache"
	"daginsched/internal/engine"
	"daginsched/internal/machine"
	"daginsched/internal/synth"
)

const (
	// novelEvery: one eligible block position in novelEvery carries new
	// content in each pass (the positions shift by one every pass); the
	// rest repeat the reference corpus. The share is set by the cache
	// file (novelBudget, about 23,900 new blocks) and the measured
	// rate: on a 2-core machine warm-stream streams about 47 passes in
	// 8 measured seconds, so 1/32 (278 new blocks a pass) inserts about
	// 13,000, 55% of the budget, and a program up to 1.8 times faster
	// still fits; 1/16 would overflow it at today's speed. The traced
	// run's time split puts the pipeline on the new blocks at about 1%
	// of the RunStream wall and the scanner at about 70%, so asm,
	// dispatch and the cache tiers are what is measured.
	novelEvery = 32
	// novelMaxInsts bounds the blocks that may be new: fpppp's 2,500-
	// and 11,750-instruction blocks always repeat. New, either would
	// put a cold build of thousands of instructions into one lifetime
	// in 16 and into no other, a sample apart that the median over
	// lifetimes would drop; cold-batch measures them cold every pass.
	novelMaxInsts = 512
	// passesPerLife is how many passes one engine lifetime serves, from
	// the restart to the close: the first is served by the disk tier
	// (L2), which promotes what it reads, and the rest by L1. Two give
	// the two tiers the same number of lookups. The scanner bounds the
	// text streams (about 16 us a block on a 2-core machine, against
	// 2-3 us for the engine's cached lookups), so a slower tier moves
	// insts_per_s only once its cost nears the scanner's;
	// diskcache.read_pass_ratio times the tiers on parsed blocks, where
	// nothing hides them.
	passesPerLife = 2
	// diskSlots is the cache file's default index size. novelBudget,
	// the new blocks one run may insert, keeps it at most half full,
	// well inside its 256 MiB data capacity too (about 250 bytes per
	// entry).
	diskSlots = 1 << 16
	// freeListSize is the block freelist's capacity: deep enough to
	// hold every block the engine's default 256-block stream queues and
	// reorder ring can hand back at once.
	freeListSize = 512
)

// warmStream streams the corpus as assembly text through
// asm.BlockScanner into Engine.RunStream, one stream per profile, on an
// engine reopened over a cache file that set-up populated, as after a
// restart. Each window is one engine lifetime: it restarts the engine
// (that open is a set-up sample) and serves passesPerLife passes, and
// it is one sample of every timing, so each sample carries the L2 pass
// in its real proportion.
type warmStream struct {
	b         *bench
	model     *machine.Model
	profiles  []synth.Profile
	ref       [][]*block.Block // pass 0, as generated: the oracle's ground truth
	refText   [][][]byte       // per profile, per block: labelled text
	seen      [][]*block.Block // the reference blocks as the program parsed them
	cfg       engine.Config
	eng       *engine.Engine
	next      uint64 // next generation pass that supplies new blocks
	novel     int    // new blocks inserted so far
	budget    int    // novelBudget
	counts    engineCounts
	split     streamSplit // where the last measured phase's time went
	crossover int         // calibrated by the last engine opened
}

// streamSplit is what the time split of the traced half is computed
// from: RunStream wall and instructions, in total, in new blocks, and
// by the pass's cache tier.
type streamSplit struct {
	busy, l2Busy, l1Busy time.Duration
	insts, novelInsts    int64
	l2Insts, l1Insts     int64
	tierL2, tierL1       time.Duration // tierCost's median pass walls
	tierBlocks           int
}

func (w *warmStream) setup(ctx context.Context) error {
	w.model = machine.Pipe1()
	w.b.orc = newOracle(w.model, w.b.nproc)
	w.profiles = seededProfiles(w.b.opts.seed)
	w.ref = generatePass(w.profiles, 0)
	w.refText = make([][][]byte, len(w.ref))
	for p, u := range w.ref {
		w.refText[p] = make([][]byte, len(u))
		for i, b := range u {
			w.refText[p][i] = appendBlockText(nil, i, b)
		}
	}
	w.next = 1
	var refBlocks int
	for _, u := range w.ref {
		refBlocks += len(u)
	}
	w.budget = novelBudget(refBlocks)
	w.cfg = engine.Config{Workers: w.b.nproc, Model: w.model, KeepOrders: true,
		CachePath: filepath.Join(w.b.tmp, "schedules.cache")}

	// Populate the cache file from cold and check what it will serve.
	e, err := engine.New(w.cfg)
	if err != nil {
		return fmt.Errorf("engine.New: %w", err)
	}
	w.eng = e
	w.seen = make([][]*block.Block, len(w.ref))
	var jobs []job
	for p := range w.ref {
		out, err := streamText(ctx, e, join(w.refText[p]), len(w.ref[p]), true)
		if err != nil {
			return fmt.Errorf("populating %s: %w", w.profiles[p].Name, err)
		}
		w.seen[p] = out.parsed
		for i, b := range w.ref[p] {
			order := out.order(i)
			jobs = append(jobs, job{id: blockID{2, int32(p), int32(i)}, b: b, order: order, cycles: out.cycles[i]})
			w.b.ref.add(blockID{2, int32(p), int32(i)}, order, out.cycles[i], out.rungs[i] == engine.RungPrimary)
		}
	}
	w.b.attempted += int64(len(jobs))
	w.b.failed += w.b.orc.check(jobs)
	if err := w.close(); err != nil {
		return err
	}
	// Restarts: each window opens the engine again; these add samples
	// so setup_s always has setupReps of them.
	for i := 0; i < setupReps-1; i++ {
		if err := w.open(nil, 0); err != nil {
			return err
		}
		if err := w.close(); err != nil {
			return err
		}
	}
	return nil
}

// novelBudget is how many new blocks a run may insert into a cache file
// that holds refBlocks: the index stays at most half full. A program
// fast enough to reach it ends the run early rather than measure a
// different mix.
func novelBudget(refBlocks int) int { return diskSlots/2 - refBlocks }

// open starts an engine over the cache file, timing it as a set-up
// sample.
func (w *warmStream) open(tr *tracer, parent int64) error {
	t0 := time.Now()
	e, err := engine.New(w.cfg)
	t1 := time.Now()
	tr.add(parent, "engine.New(CachePath)", t0, t1)
	w.b.setupS = append(w.b.setupS, t1.Sub(t0).Seconds())
	if err != nil {
		return fmt.Errorf("reopening over the cache file: %w", err)
	}
	w.eng = e
	return nil
}

// passText renders profile p for generation pass k: the reference
// text with the blocks at this pass's new positions replaced by the
// pass's own content. It returns the text and the ground-truth block
// for every position (nil where the reference block stands).
func (w *warmStream) passText(p int, k uint64, fresh []*block.Block) ([]byte, []*block.Block) {
	var text []byte
	truth := make([]*block.Block, len(w.ref[p]))
	for i := range w.ref[p] {
		if w.isNovel(p, i, k) {
			truth[i] = fresh[i]
			text = appendBlockText(text, i, fresh[i])
			continue
		}
		text = append(text, w.refText[p][i]...)
	}
	return text, truth
}

// isNovel reports whether block position i of profile p carries new
// content in generation pass k.
func (w *warmStream) isNovel(p, i int, k uint64) bool {
	return (i+int(k))%novelEvery == 0 && w.ref[p][i].Len() <= novelMaxInsts
}

// novelPerPass is how many new blocks pass k carries.
func (w *warmStream) novelPerPass(k uint64) int {
	n := 0
	for p, u := range w.ref {
		for i := range u {
			if w.isNovel(p, i, k) {
				n++
			}
		}
	}
	return n
}

type streamJob struct {
	p     int
	text  []byte
	truth []*block.Block
}

func (w *warmStream) measure(ctx context.Context, d time.Duration, tr *tracer, parent int64) (*tally, error) {
	t := &tally{}
	w.split = streamSplit{}
	for first := true; first || t.busy < d; first = false {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Inputs for the lifetime, generated outside it.
		var todo []streamJob
		add := 0
		for pass := 0; pass < passesPerLife; pass++ {
			add += w.novelPerPass(w.next + uint64(pass))
		}
		if w.novel+add > w.budget && !first {
			fmt.Fprintf(w.b.log, "warm-stream: new-block budget of %d reached after %.1fs of %.1fs measured\n", w.budget, t.busy.Seconds(), d.Seconds())
			break
		}
		for pass := 0; pass < passesPerLife; pass++ {
			fresh := generatePass(w.profiles, w.next)
			for p := range w.ref {
				text, truth := w.passText(p, w.next, fresh[p])
				todo = append(todo, streamJob{p: p, text: text, truth: truth})
			}
			w.next++
		}
		w.novel += add

		wid := tr.id()
		w0 := time.Now()
		if err := w.open(tr, wid); err != nil {
			return nil, err
		}
		outs := make([]*streamOut, len(todo))
		var life struct {
			insts            int64
			busy             time.Duration
			l2Insts, l1Insts int64
			l2Busy, l1Busy   time.Duration
		}
		var lw latWindow
		w.b.rss.begin()
		for j, sj := range todo {
			id := tr.id()
			t0 := time.Now()
			out, err := streamText(ctx, w.eng, sj.text, len(sj.truth), false)
			t1 := time.Now()
			tr.record(id, wid, "engine.RunStream", t0, t1)
			if err != nil {
				return nil, fmt.Errorf("stream %s: %w", w.profiles[sj.p].Name, err)
			}
			dt := t1.Sub(t0)
			lw.units = append(lw.units, ms(dt))
			lw.blocks = append(lw.blocks, out.lat...)
			outs[j] = out
			life.busy += dt
			life.insts += out.stats.Insts
			if j < len(w.ref) { // the lifetime's first pass: the disk tier serves it
				life.l2Busy += dt
				life.l2Insts += out.stats.Insts
			} else {
				life.l1Busy += dt
				life.l1Insts += out.stats.Insts
			}
		}
		if err := w.b.rss.end(); err != nil {
			return nil, err
		}
		c0 := time.Now()
		if err := w.close(); err != nil {
			return nil, err
		}
		tr.add(wid, "engine.Close", c0, time.Now())
		tr.record(wid, parent, "window", w0, time.Now())
		t.busy += life.busy
		t.rates = append(t.rates, ratio(float64(life.insts), life.busy.Seconds()))
		t.lat = append(t.lat, lw)
		sp := &w.split
		sp.busy += life.busy
		sp.insts += life.insts
		sp.l2Busy += life.l2Busy
		sp.l2Insts += life.l2Insts
		sp.l1Busy += life.l1Busy
		sp.l1Insts += life.l1Insts

		var jobs []job
		for j, sj := range todo {
			out := outs[j]
			w.counts.add(&out.stats)
			for i, truth := range sj.truth {
				jb := job{b: truth, order: out.order(i), cycles: out.cycles[i]}
				if truth == nil {
					jb.id, jb.b = blockID{2, int32(sj.p), int32(i)}, w.ref[sj.p][i]
				} else {
					sp.novelInsts += int64(truth.Len())
				}
				jobs = append(jobs, jb)
			}
		}
		w.b.attempted += int64(len(jobs))
		w.b.failed += w.b.orc.check(jobs)
	}
	w.counts.report(w.b.layers)
	if tr != nil {
		if err := w.tierCost(ctx, tr, parent); err != nil {
			return nil, err
		}
	}
	if err := w.diskFigures(tr, parent); err != nil {
		return nil, err
	}
	return t, nil
}

// tierReps is how many restarts the tier measurement takes its median
// over.
const tierReps = 5

// tierCost isolates the cache tiers from the scanner, which bounds the
// text streams: it reopens the engine over the cache file tierReps
// times and streams the reference blocks, already parsed, through
// RunStream twice, the first pass served by the disk tier and the
// second by L1. diskcache.read_pass_ratio is the median first-pass
// wall over the median second-pass wall. Every schedule is checked.
func (w *warmStream) tierCost(ctx context.Context, tr *tracer, parent int64) error {
	var blocks []*block.Block
	var ids []blockID
	for p, u := range w.seen {
		blocks = append(blocks, u...)
		for i := range u {
			ids = append(ids, blockID{2, int32(p), int32(i)})
		}
	}
	var l2, l1 []float64
	var jobs []job
	for rep := 0; rep < tierReps; rep++ {
		e, err := engine.New(w.cfg)
		if err != nil {
			return fmt.Errorf("reopening over the cache file: %w", err)
		}
		for _, walls := range []*[]float64{&l2, &l1} {
			t0 := time.Now()
			out, err := streamBlocks(ctx, e, blocks)
			t1 := time.Now()
			tr.add(parent, "engine.RunStream(parsed)", t0, t1)
			if err != nil {
				e.Close()
				return fmt.Errorf("streaming parsed blocks: %w", err)
			}
			*walls = append(*walls, float64(t1.Sub(t0)))
			for i, id := range ids {
				jobs = append(jobs, job{id: id, b: w.ref[id.unit][id.index], order: out.order(i), cycles: out.cycles[i]})
			}
		}
		if err := e.Close(); err != nil {
			return fmt.Errorf("closing the engine: %w", err)
		}
	}
	w.b.attempted += int64(len(jobs))
	w.b.failed += w.b.orc.check(jobs)
	w.split.tierL2 = time.Duration(median(l2))
	w.split.tierL1 = time.Duration(median(l1))
	w.split.tierBlocks = len(blocks)
	w.b.layers["diskcache.read_pass_ratio"] = ratio(median(l2), median(l1))
	return nil
}

// printSplit writes where the traced half's RunStream wall went,
// estimated from the layer replay: scanning the text, hashing block
// keys, the extra cost of the disk-tier pass over an L1 pass, and the
// pipeline on the new blocks (at the 1-worker cache-off engine's cost
// per instruction). The producer scans while the workers schedule, so
// the shares are CPU time over wall; the remainder is the stream
// dispatch, reorder ring, L1 lookups and the sink.
func (w *warmStream) printSplit(out io.Writer, rep *layerReport) {
	sp := &w.split
	busy := float64(sp.busy)
	l2 := ratio(float64(sp.l2Busy), float64(sp.l2Insts))
	l1 := ratio(float64(sp.l1Busy), float64(sp.l1Insts))
	pipe := ratio(float64(rep.wall), float64(rep.cost.insts))
	shares := []struct {
		name  string
		share float64
	}{
		{"asm scan", rep.scanNs * float64(sp.insts) / busy},
		{"engine.BlockKey", rep.keyNs * float64(sp.insts) / busy},
		{"disk-tier pass extra", (l2 - l1) * float64(sp.l2Insts) / busy},
		{"pipeline on new blocks", pipe * float64(sp.novelInsts) / busy},
	}
	fmt.Fprintf(out, "warm-stream time split of the traced half (%.3f s of RunStream, %d insts, %.4f of them new; L2 pass %.1f ns/inst, L1 pass %.1f ns/inst):\n",
		sp.busy.Seconds(), sp.insts, ratio(float64(sp.novelInsts), float64(sp.insts)), l2, l1)
	rest := 1.0
	for _, s := range shares {
		fmt.Fprintf(out, "  %-30s %6.3f\n", s.name, s.share)
		rest -= s.share
	}
	fmt.Fprintf(out, "  %-30s %6.3f\n", "rest (dispatch, reorder, L1)", rest)
	fmt.Fprintf(out, "  parsed blocks, no scanner: disk-tier pass %.1f ns/block, L1 pass %.1f ns/block\n",
		ratio(float64(sp.tierL2), float64(sp.tierBlocks)), ratio(float64(sp.tierL1), float64(sp.tierBlocks)))
}

// diskFigures opens the closed cache file read-only and reports its
// entry count, data tail and open time (as a share of setup_s).
func (w *warmStream) diskFigures(tr *tracer, parent int64) error {
	var opens []float64
	var c *diskcache.Cache
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		dc, err := diskcache.Open(w.cfg.CachePath, diskcache.Options{ReadOnly: true})
		t1 := time.Now()
		tr.add(parent, "diskcache.Open(read-only)", t0, t1)
		if err != nil {
			return fmt.Errorf("opening the cache file read-only: %w", err)
		}
		opens = append(opens, t1.Sub(t0).Seconds())
		if c != nil {
			c.Close()
		}
		c = dc
	}
	w.b.layers["diskcache.entries"] = float64(c.Len())
	w.b.layers["diskcache.tail_bytes"] = float64(c.Tail())
	w.b.layers["diskcache.open_share"] = ratio(median(opens), median(append([]float64(nil), w.b.setupS...)))
	return c.Close()
}

func (w *warmStream) reference() replayInput {
	var text []byte
	for _, t := range w.refText {
		text = append(text, join(t)...)
	}
	return replayInput{model: w.model, crossover: w.crossover, units: w.seen, text: text}
}

func (w *warmStream) close() error {
	if w.eng == nil {
		return nil
	}
	w.crossover = w.eng.Crossover()
	err := w.eng.Close()
	w.eng = nil
	if err != nil {
		return fmt.Errorf("closing the engine: %w", err)
	}
	return nil
}

func join(parts [][]byte) []byte { return bytes.Join(parts, nil) }

// streamOut is what one RunStream delivered, indexed by sequence
// number.
type streamOut struct {
	sent   []time.Time // when each block was handed to the engine
	cycles []int32
	rungs  []engine.Rung
	off    []int32 // block i's order is orders[off[i]:off[i+1]]
	orders []int32
	lat    []weighted // per-block latency, us
	parsed []*block.Block
	stats  engine.Stats
}

func (o *streamOut) order(i int) []int32 { return o.orders[o.off[i]:o.off[i+1]] }

// streamText feeds text through asm.BlockScanner into RunStream on e,
// the way asm.StreamBlocks does (one producer, blocks recycled through
// a freelist), timestamping each block as it is handed over and timing
// it again when the sink sees its outcome. keep retains the parsed
// blocks instead of recycling them.
func streamText(ctx context.Context, e *engine.Engine, text []byte, nblocks int, keep bool) (*streamOut, error) {
	return runStream(ctx, e, nblocks, keep, func(ctx context.Context, src chan<- *block.Block, free <-chan *block.Block, sent []time.Time) error {
		return feed(ctx, text, src, free, sent)
	})
}

// streamBlocks feeds already parsed blocks into RunStream on e, with no
// scanning in front of the engine.
func streamBlocks(ctx context.Context, e *engine.Engine, blocks []*block.Block) (*streamOut, error) {
	return runStream(ctx, e, len(blocks), true, func(ctx context.Context, src chan<- *block.Block, _ <-chan *block.Block, sent []time.Time) error {
		defer close(src)
		for i, b := range blocks {
			sent[i] = time.Now()
			select {
			case src <- b:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	})
}

// runStream runs one RunStream on e over the nblocks blocks produce
// sends into src (closing it at the end), collecting the outcomes.
func runStream(ctx context.Context, e *engine.Engine, nblocks int, keep bool,
	produce func(ctx context.Context, src chan<- *block.Block, free <-chan *block.Block, sent []time.Time) error) (*streamOut, error) {
	out := &streamOut{
		sent:   make([]time.Time, nblocks),
		cycles: make([]int32, nblocks),
		rungs:  make([]engine.Rung, nblocks),
		off:    make([]int32, nblocks+1),
		lat:    make([]weighted, 0, nblocks),
	}
	if keep {
		out.parsed = make([]*block.Block, nblocks)
	}
	src := make(chan *block.Block)
	free := make(chan *block.Block, freeListSize)
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fed := make(chan error, 1)
	go func() { fed <- produce(fctx, src, free, out.sent) }()

	n := 0
	sink := func(o engine.BlockOutcome) {
		now := time.Now()
		s := int(o.Seq)
		out.lat = append(out.lat, weighted{us(now.Sub(out.sent[s])), 1})
		out.cycles[s] = o.Cycles
		out.rungs[s] = o.Rung
		out.off[s] = int32(len(out.orders))
		out.orders = append(out.orders, o.Order...)
		if keep {
			out.parsed[s] = o.Block
		} else {
			select {
			case free <- o.Block:
			default:
			}
		}
		n++
	}
	st, err := e.RunStream(ctx, src, sink)
	cancel()
	feedErr := <-fed
	out.stats = st
	out.off[nblocks] = int32(len(out.orders))
	switch {
	case err != nil:
		return nil, fmt.Errorf("RunStream: %w", err)
	case feedErr != nil:
		return nil, fmt.Errorf("producing blocks: %w", feedErr)
	case n != nblocks:
		return nil, fmt.Errorf("stream delivered %d blocks, want %d", n, nblocks)
	}
	return out, nil
}

// feed is the stream's producer. It closes src when the text ends.
func feed(ctx context.Context, text []byte, src chan<- *block.Block, free <-chan *block.Block, sent []time.Time) error {
	defer close(src)
	sc := asm.NewBlockScanner(bytes.NewReader(text))
	for seq := 0; ; seq++ {
		var b *block.Block
		select {
		case b = <-free:
		default:
			b = &block.Block{}
		}
		ok, err := sc.Next(b)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if seq >= len(sent) {
			return fmt.Errorf("text holds more than the %d blocks rendered", len(sent))
		}
		sent[seq] = time.Now()
		select {
		case src <- b:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
