package main

import (
	"bytes"
	"fmt"
	"time"

	"daginsched/internal/asm"
	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/engine"
	"daginsched/internal/heur"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/sched"
)

// replayReps is how many times the layer replay and the 1-worker
// reconciliation run alternate; the per-layer figures are medians.
const replayReps = 7

// spanMinInsts is the block size from which the replay records a span
// per layer call; smaller blocks are only summed, so the span file
// stays small while the blocks that dominate the time are all there.
const spanMinInsts = 128

// layerCost is one replay pass: per-layer time and the work each layer
// did.
type layerCost struct {
	prepare, n2, table, freeze, heur, sched time.Duration

	blocks, insts       int64
	n2Blocks, n2Clean   int64 // blocks attempted on the n² builder, and those it built transitive-free
	n2Insts, tableInsts int64 // instructions built by each builder (a dirty n² block counts on both)
	frozenArcs, arcs    int64 // arcs of the frozen (table-built) DAGs, and of every final DAG
	nodes, packExact    int64 // heuristic nodes, and blocks whose priorities packed exactly
	cycles              int64 // schedule lengths, compared with the engine's own
}

func (c *layerCost) total() time.Duration {
	return c.prepare + c.n2 + c.table + c.freeze + c.heur + c.sched
}

// replayer runs blocks through the layers' public functions with the
// inputs and scratch reuse of one engine worker: PrepareBlock, then the
// n² builder for blocks up to the crossover (falling back to backward
// table building when its DAG is not transitive-free) or table
// building, Freeze, the fused heuristic sweep (the separate passes plus
// packing on the n² path), and the packed-priority forward scheduler.
// What the engine adds around this — dispatch, deadlines, the output
// gate, result copies — is what the reconciliation leaves unaccounted.
type replayer struct {
	m         *machine.Model
	crossover int
	rt        *resource.Table
	ar        dag.BuildArena
	a         *heur.Annot
	sc        sched.Scratch
	sel       *sched.PooledWinnow
	tick      time.Duration // cost of one time.Now, taken off every interval
}

func newReplayer(m *machine.Model, crossover int) *replayer {
	rt := resource.NewTable(resource.MemExprModel)
	rt.SetUniqueCounting(false) // as the engine's workers do
	return &replayer{
		m:         m,
		crossover: crossover,
		rt:        rt,
		a:         heur.New(nil, m),
		sel:       sched.NewPooledWinnow(sched.Section6Ranked()),
		tick:      timerCost(),
	}
}

// timerCost is the best-of-five mean cost of one time.Now call.
func timerCost() time.Duration {
	best := time.Duration(1 << 62)
	for trial := 0; trial < 5; trial++ {
		t0 := time.Now()
		t := t0
		for i := 0; i < 1000; i++ {
			t = time.Now()
		}
		best = min(best, t.Sub(t0)/1000)
	}
	return best
}

// lap returns the interval since *prev less the timer's own cost, and
// advances *prev.
func (r *replayer) lap(prev *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*prev) - r.tick
	*prev = now
	return max(0, d)
}

// pass replays every block once. Blocks of at least spanMinInsts get a
// span per layer under parent.
func (r *replayer) pass(units [][]*block.Block, tr *tracer, parent int64) layerCost {
	var c layerCost
	for _, unit := range units {
		for _, b := range unit {
			r.block(b, &c, tr, parent)
		}
	}
	return c
}

func (r *replayer) block(b *block.Block, c *layerCost, tr *tracer, parent int64) {
	n := b.Len()
	c.blocks++
	c.insts += int64(n)
	traced := tr != nil && n >= spanMinInsts
	var bid int64
	start := time.Now()
	mark := func(name string, from time.Time) {
		if traced {
			tr.add(bid, name, from, time.Now())
		}
	}
	if traced {
		bid = tr.id()
	}
	t := start
	r.rt.PrepareBlock(b.Insts)
	c.prepare += r.lap(&t)
	mark("resource.PrepareBlock", start)

	var res *sched.Result
	if n <= r.crossover {
		from := t
		nd, clean := dag.N2Forward{}.BuildCleanInto(&r.ar, b, r.m, r.rt)
		c.n2 += r.lap(&t)
		c.n2Blocks++
		c.n2Insts += int64(n)
		mark("dag.N2Forward.BuildCleanInto", from)
		if clean {
			c.n2Clean++
			from = t
			r.a.D = nd
			r.a.ComputeBackward()
			r.a.ComputeLocal()
			if r.a.PackSection6Prio() {
				c.packExact++
			}
			c.heur += r.lap(&t)
			mark("heur.ComputeBackward+Local+Pack", from)
			from = t
			res = r.sc.Forward(nd, r.m, r.a, r.sel)
			c.sched += r.lap(&t)
			mark("sched.Scratch.Forward", from)
			r.finish(c, nd, res, n)
			if traced {
				tr.record(bid, parent, "replay.block", start, time.Now())
			}
			return
		}
	}
	from := t
	d := dag.TableBackward{}.BuildInto(&r.ar, b, r.m, r.rt)
	c.table += r.lap(&t)
	c.tableInsts += int64(n)
	mark("dag.TableBackward.BuildInto", from)
	from = t
	d.Freeze()
	c.freeze += r.lap(&t)
	c.frozenArcs += int64(d.NumArcs)
	mark("dag.DAG.Freeze", from)
	from = t
	r.a.D = d
	r.a.ComputeFusedCSR()
	if r.a.PrioExact {
		c.packExact++
	}
	c.heur += r.lap(&t)
	mark("heur.Annot.ComputeFusedCSR", from)
	from = t
	res = r.sc.Forward(d, r.m, r.a, r.sel)
	c.sched += r.lap(&t)
	mark("sched.Scratch.Forward", from)
	r.finish(c, d, res, n)
	if traced {
		tr.record(bid, parent, "replay.block", start, time.Now())
	}
}

func (r *replayer) finish(c *layerCost, d *dag.DAG, res *sched.Result, n int) {
	c.nodes += int64(n)
	c.arcs += int64(d.NumArcs)
	c.cycles += int64(res.Cycles)
}

// reconRun is one 1-worker, cache-off engine pass over the same units
// the replay covers: its wall time and the engine's own tallies.
type reconRun struct {
	wall      time.Duration
	binNanos  [8]float64
	blocks    int64
	packed    int64
	cycles    int64
	degraded  int64
	binLabels [8]string
}

// reconcile runs the units through a 1-worker engine configured like
// the workload's (model, crossover, deadline) with the cache off.
func reconcile(e *engine.Engine, units [][]*block.Block, tr *tracer, parent int64) (reconRun, error) {
	var rr reconRun
	for _, unit := range units {
		t0 := time.Now()
		res, err := e.Run(unit)
		t1 := time.Now()
		if err != nil {
			return rr, fmt.Errorf("reconciliation run: %w", err)
		}
		tr.add(parent, "engine.Run(1 worker)", t0, t1)
		rr.wall += t1.Sub(t0)
		st := &res.Stats
		rr.blocks += int64(st.Blocks)
		rr.packed += st.PackedSelBlocks
		rr.cycles += st.TotalCycles
		rr.degraded += st.DegradedBlocks
		for i, bin := range st.Bins {
			if i < len(rr.binNanos) && bin.InstsPerSec > 0 {
				rr.binNanos[i] += float64(bin.Insts) / bin.InstsPerSec * 1e9
				rr.binLabels[i] = bin.Label
			}
		}
	}
	return rr, nil
}

// layerReport is what the replay and reconciliation produce for the
// per-layer metrics.
type layerReport struct {
	cost      layerCost     // medians of the replayed layer times; counts of the last pass
	layerSum  time.Duration // median replayed layer sum
	wall      time.Duration // median 1-worker engine wall over the same blocks
	recon     reconRun      // last reconciliation pass
	scanNs    float64       // asm: ns per instruction scanned
	keyNs     float64       // engine.BlockKey: ns per instruction hashed
	mismatch  int64         // replayed cycle total minus the engine's (0 when the replay is faithful)
	crossover int
}

// measureLayers alternates replay passes with 1-worker engine passes
// over units (the workload's reference blocks, as the program saw
// them), then times scanning text and block-key hashing over the same
// blocks.
func measureLayers(m *machine.Model, crossover int, blockTimeout time.Duration, units [][]*block.Block, text []byte, tr *tracer, parent int64) (*layerReport, error) {
	cfgCross := crossover
	if cfgCross == 0 {
		cfgCross = -1 // the workload's engine never routes to n²; keep it so
	}
	e, err := engine.New(engine.Config{Workers: 1, Model: m, KeepOrders: true, Crossover: cfgCross, BlockTimeout: blockTimeout})
	if err != nil {
		return nil, fmt.Errorf("reconciliation engine: %w", err)
	}
	defer e.Close()
	rp := newReplayer(m, e.Crossover())
	rep := &layerReport{crossover: crossover}
	var costs []layerCost
	var sums, walls []float64
	for i := 0; i < replayReps; i++ {
		pid := tr.id()
		t0 := time.Now()
		c := rp.pass(units, tr, pid)
		tr.record(pid, parent, "replay.pass", t0, time.Now())
		costs = append(costs, c)
		sums = append(sums, float64(c.total()))

		rid := tr.id()
		t0 = time.Now()
		rr, err := reconcile(e, units, tr, rid)
		tr.record(rid, parent, "reconcile.pass", t0, time.Now())
		if err != nil {
			return nil, err
		}
		walls = append(walls, float64(rr.wall))
		rep.recon = rr
	}
	rep.cost = medianCost(costs)
	rep.layerSum = time.Duration(median(sums))
	rep.wall = time.Duration(median(walls))
	rep.mismatch = rep.cost.cycles - rep.recon.cycles

	var insts int64
	for _, u := range units {
		insts += countInsts(u)
	}
	sid := tr.id()
	t0 := time.Now()
	scan, err := scanCost(text, insts)
	tr.record(sid, parent, "asm.BlockScanner.Next", t0, time.Now())
	if err != nil {
		return nil, err
	}
	rep.scanNs = scan
	t0 = time.Now()
	rep.keyNs = blockKeyCost(units, insts)
	tr.add(parent, "engine.BlockKey", t0, time.Now())
	return rep, nil
}

// medianCost takes each layer's median time across passes; the work
// counts are identical in every pass.
func medianCost(cs []layerCost) layerCost {
	out := cs[len(cs)-1]
	pick := func(get func(*layerCost) time.Duration) time.Duration {
		xs := make([]float64, len(cs))
		for i := range cs {
			xs[i] = float64(get(&cs[i]))
		}
		return time.Duration(median(xs))
	}
	out.prepare = pick(func(c *layerCost) time.Duration { return c.prepare })
	out.n2 = pick(func(c *layerCost) time.Duration { return c.n2 })
	out.table = pick(func(c *layerCost) time.Duration { return c.table })
	out.freeze = pick(func(c *layerCost) time.Duration { return c.freeze })
	out.heur = pick(func(c *layerCost) time.Duration { return c.heur })
	out.sched = pick(func(c *layerCost) time.Duration { return c.sched })
	return out
}

// scanCost is the median time per instruction of partitioning text
// into blocks with asm.BlockScanner, recycling one block as the
// program's producers do.
func scanCost(text []byte, insts int64) (float64, error) {
	var xs []float64
	b := &block.Block{}
	for i := 0; i < replayReps; i++ {
		sc := asm.NewBlockScanner(bytes.NewReader(text))
		var n int64
		t0 := time.Now()
		for {
			ok, err := sc.Next(b)
			if err != nil {
				return 0, fmt.Errorf("scanning reference text: %w", err)
			}
			if !ok {
				break
			}
			n += int64(b.Len())
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds()))
		if n != insts {
			return 0, fmt.Errorf("scanning reference text: %d instructions, want %d", n, insts)
		}
	}
	return ratio(median(xs), float64(insts)), nil
}

// blockKeyCost is the median time per instruction of engine.BlockKey,
// the cache-key fingerprint every cached lookup computes.
func blockKeyCost(units [][]*block.Block, insts int64) float64 {
	var xs []float64
	var sink uint64
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		for _, u := range units {
			for _, b := range u {
				sink ^= engine.BlockKey(b.Insts)
			}
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds()))
	}
	keySink = sink
	return ratio(median(xs), float64(insts))
}

// keySink keeps the hashing loop from being optimized away.
var keySink uint64

// metrics turns the report into the replay-derived per-layer metrics.
func (r *layerReport) metrics(out map[string]float64) {
	c := &r.cost
	out["asm.scan_ns_per_inst"] = r.scanNs
	out["resource.prepare_ns_per_inst"] = ratio(float64(c.prepare), float64(c.insts))
	out["dag.n2_ns_per_inst"] = ratio(float64(c.n2), float64(c.n2Insts))
	out["dag.n2_clean_ratio"] = ratio(float64(c.n2Clean), float64(c.n2Blocks))
	out["dag.table_ns_per_inst"] = ratio(float64(c.table), float64(c.tableInsts))
	out["dag.freeze_ns_per_arc"] = ratio(float64(c.freeze), float64(c.frozenArcs))
	out["dag.arcs_per_inst"] = ratio(float64(c.arcs), float64(c.insts))
	out["heur.sweep_ns_per_node"] = ratio(float64(c.heur), float64(c.nodes))
	out["heur.pack_exact_ratio"] = ratio(float64(c.packExact), float64(c.blocks))
	out["sched.select_ns_per_inst"] = ratio(float64(c.sched), float64(c.insts))
	out["sched.packed_ratio"] = ratio(float64(r.recon.packed), float64(r.recon.blocks))
	out["engine.crossover"] = float64(r.crossover)
	var binTotal float64
	for _, v := range r.recon.binNanos {
		binTotal += v
	}
	for i, v := range r.recon.binNanos {
		out[fmt.Sprintf("engine.bin%d.wall_share", i)] = ratio(v, binTotal)
	}
	out["engine.unaccounted_ratio"] = 1 - ratio(float64(r.layerSum), float64(r.wall))
	out["engine.blockkey_ns_per_inst"] = r.keyNs
}

// unaccountedLo and unaccountedHi are the stated reconciliation band:
// the replayed layer sum must cover at least half of the 1-worker
// engine wall, and may exceed it by at most 15% — the spread of
// back-to-back passes on a shared 2-core machine, plus the timer calls
// the replay adds. Outside it the report flags the layer figures.
const unaccountedLo, unaccountedHi = -0.15, 0.5
