package main

import (
	"context"
	"fmt"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/engine"
	"daginsched/internal/machine"
	"daginsched/internal/synth"
)

// coldBatch schedules the nine Table 3 profiles as compilation units,
// one Engine.Run each, on an engine with the default Config (cache
// off, calibrated crossover) plus KeepOrders, nproc workers and the
// pipe1 model. Every pass is a fresh generation pass, so no block
// repeats and the pipeline layers do all the work, fpppp's
// 11,750-instruction block included. A window is one pass; its
// schedules are checked between windows. The engine is replaced every
// passesPerEngine passes, as a compiler process would start afresh, so
// a run samples several calibrated crossovers and heap layouts instead
// of inheriting one for its whole length; each start is a set-up
// sample.
type coldBatch struct {
	b        *bench
	model    *machine.Model
	profiles []synth.Profile
	ref      [][]*block.Block // pass 0: the reference set
	cfg      engine.Config
	eng      *engine.Engine
	next     uint64 // next generation pass
	age      int    // passes the current engine has served
	counts   engineCounts
}

// passesPerEngine is how many passes one engine serves.
const passesPerEngine = 8

func (w *coldBatch) setup(ctx context.Context) error {
	w.model = machine.Pipe1()
	w.b.orc = newOracle(w.model, w.b.nproc)
	w.profiles = seededProfiles(w.b.opts.seed)
	w.ref = generatePass(w.profiles, 0)
	w.cfg = engine.Config{Workers: w.b.nproc, Model: w.model, KeepOrders: true}
	for i := 0; i < setupReps; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := w.restart(nil, 0); err != nil {
			return err
		}
	}
	return nil
}

// restart replaces the engine with a new one, timing engine.New as a
// set-up sample.
func (w *coldBatch) restart(tr *tracer, parent int64) error {
	if err := w.close(); err != nil {
		return fmt.Errorf("closing the engine: %w", err)
	}
	t0 := time.Now()
	e, err := engine.New(w.cfg)
	t1 := time.Now()
	tr.add(parent, "engine.New", t0, t1)
	w.b.setupS = append(w.b.setupS, t1.Sub(t0).Seconds())
	if err != nil {
		return fmt.Errorf("engine.New: %w", err)
	}
	w.eng, w.age = e, 0
	return nil
}

func (w *coldBatch) measure(ctx context.Context, d time.Duration, tr *tracer, parent int64) (*tally, error) {
	t := &tally{}
	for first := true; first || t.busy < d; first = false {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if w.age == passesPerEngine {
			if err := w.restart(tr, parent); err != nil {
				return nil, err
			}
		}
		w.age++
		k := w.next
		w.next++
		units := w.ref
		if k > 0 {
			units = generatePass(w.profiles, k)
		}
		results := make([]*engine.BatchResult, len(units))
		var passInsts int64
		var passBusy time.Duration
		var lw latWindow
		w.b.rss.begin()
		for i, u := range units {
			id := tr.id()
			t0 := time.Now()
			res, err := w.eng.Run(u)
			t1 := time.Now()
			tr.record(id, parent, "engine.Run", t0, t1)
			if err != nil {
				return nil, fmt.Errorf("Run %s pass %d: %w", w.profiles[i].Name, k, err)
			}
			dt := t1.Sub(t0)
			passBusy += dt
			passInsts += res.Stats.Insts
			lw.units = append(lw.units, ms(dt))
			lw.blocks = append(lw.blocks, weighted{us(dt), int64(len(u))})
			results[i] = res
		}
		if err := w.b.rss.end(); err != nil {
			return nil, err
		}
		t.busy += passBusy
		t.rates = append(t.rates, ratio(float64(passInsts), passBusy.Seconds()))
		t.lat = append(t.lat, lw)

		var jobs []job
		for i, u := range units {
			res := results[i]
			w.counts.add(&res.Stats)
			for j, blk := range u {
				jobs = append(jobs, job{b: blk, order: res.Orders[j], cycles: res.Cycles[j]})
				if k == 0 {
					w.b.ref.add(blockID{1, int32(i), int32(j)}, res.Orders[j], res.Cycles[j], res.Rungs[j] == engine.RungPrimary)
				}
			}
		}
		w.b.attempted += int64(len(jobs))
		w.b.failed += w.b.orc.check(jobs)
	}
	w.counts.report(w.b.layers)
	return t, nil
}

func (w *coldBatch) reference() replayInput {
	var text []byte
	for _, u := range w.ref {
		text = append(text, unitText(u)...)
	}
	return replayInput{model: w.model, crossover: w.eng.Crossover(), units: w.ref, text: text}
}

func (w *coldBatch) close() error {
	if w.eng == nil {
		return nil
	}
	err := w.eng.Close()
	w.eng = nil
	return err
}
