// Package fault is the engine's deterministic fault-injection harness.
// Production-scale serving needs the failure side of the paper's "no
// instruction window" result: blocks of unbounded size reach the hot
// path, so the engine wraps every per-block pipeline in a recover
// boundary and a degradation ladder — and this package is how that
// machinery is proven to work. A Plan names a seed and a per-point
// injection rate; an Injector compiled from it answers, purely as a
// function of (seed, point, block fingerprint), whether a given block
// is faulted at a given point. Because the decision depends only on
// block *content*, the faulted set is identical across worker counts,
// interleavings and repeated runs — which is what lets the chaos gate
// demand byte-identical results for every non-faulted block.
//
// All injection methods are nil-receiver-safe no-ops, so an engine
// without a Config.FaultPlan carries a single nil check per point and
// nothing else.
package fault

import (
	"fmt"
	"time"

	"daginsched/internal/dag"
)

// Point names one injection site inside the engine's per-block
// pipeline.
type Point uint8

const (
	// PanicBuilder panics at the end of DAG construction, leaving the
	// worker's arena holding a built-but-unscheduled DAG — the
	// mid-pipeline state the quarantine must be able to discard.
	PanicBuilder Point = iota
	// CorruptArc overwrites the delay of one deterministically chosen
	// record of the frozen predecessor array after construction, so
	// the CSR's two halves disagree where the legality gate
	// cross-checks them — a silent-miscompile stand-in the gate must
	// catch.
	CorruptArc
	// CacheBitflip flips one bit in the scheduled order copied out of a
	// schedule-cache hit, modeling a poisoned or decayed cache entry.
	CacheBitflip
	// SlowBlock stalls the primary pipeline attempt, modeling a
	// pathological block; with a Config.BlockTimeout set, the stall
	// trips the soft deadline and demotes the block.
	SlowBlock
	// NumPoints is the number of injection points.
	NumPoints
)

// String names the point for diagnostics.
func (p Point) String() string {
	switch p {
	case PanicBuilder:
		return "panic-builder"
	case CorruptArc:
		return "corrupt-arc"
	case CacheBitflip:
		return "cache-bitflip"
	case SlowBlock:
		return "slow-block"
	}
	return "unknown"
}

// Plan configures deterministic fault injection. Each rate is the
// expected fraction of distinct blocks faulted at that point, in
// [0, 1]; a zero Plan (or a nil one) injects nothing.
type Plan struct {
	// Seed drives every injection decision. Two runs with the same
	// seed, rates and corpus fault exactly the same blocks.
	Seed uint64
	// PanicBuilder, CorruptArc, CacheBitflip and SlowBlock are the
	// per-point injection rates.
	PanicBuilder float64
	CorruptArc   float64
	CacheBitflip float64
	SlowBlock    float64
	// SlowDelay is how long a SlowBlock stall runs before giving up
	// (soft deadlines cut it short); <= 0 means 2ms.
	SlowDelay time.Duration
}

// defaultSlowDelay is the stall length when Plan.SlowDelay is unset.
const defaultSlowDelay = 2 * time.Millisecond

// rates returns the per-point rate array.
func (p *Plan) rates() [NumPoints]float64 {
	return [NumPoints]float64{p.PanicBuilder, p.CorruptArc, p.CacheBitflip, p.SlowBlock}
}

// Validate reports whether the plan's rates and delay are sensible.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for pt, r := range p.rates() {
		if r < 0 || r > 1 {
			return fmt.Errorf("fault: %s rate %v outside [0, 1]", Point(pt), r)
		}
	}
	if p.SlowDelay < 0 {
		return fmt.Errorf("fault: negative SlowDelay %v", p.SlowDelay)
	}
	return nil
}

// Enabled reports whether the plan injects anything at all.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	for _, r := range p.rates() {
		if r > 0 {
			return true
		}
	}
	return false
}

// Injector is a Plan compiled to threshold form. The zero of the type
// is never used: a nil *Injector is the disabled state, and every
// method is a nil-safe no-op.
type Injector struct {
	seed   uint64
	thresh [NumPoints]uint64
	slow   time.Duration
}

// NewInjector compiles p. It returns (nil, nil) — injection disabled —
// when p is nil or injects nothing, and an error when p is invalid.
func NewInjector(p *Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.Enabled() {
		return nil, nil
	}
	in := &Injector{seed: p.Seed, slow: p.SlowDelay}
	if in.slow <= 0 {
		in.slow = defaultSlowDelay
	}
	for pt, r := range p.rates() {
		switch {
		case r >= 1:
			in.thresh[pt] = ^uint64(0)
		case r > 0:
			in.thresh[pt] = uint64(r * float64(1<<63) * 2)
		}
	}
	return in, nil
}

// mix is SplitMix64 over the (seed, point, key) triple — a cheap,
// well-distributed pure hash, so each point draws an independent
// deterministic coin per block fingerprint.
func mix(seed uint64, pt Point, key uint64) uint64 {
	z := seed ^ (key * 0x9e3779b97f4a7c15) ^ (uint64(pt+1) * 0xbf58476d1ce4e5b9)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Should reports whether the block with content fingerprint key is
// faulted at point pt. Pure and deterministic; nil-safe.
func (in *Injector) Should(pt Point, key uint64) bool {
	if in == nil {
		return false
	}
	t := in.thresh[pt]
	if t == 0 {
		return false
	}
	return t == ^uint64(0) || mix(in.seed, pt, key) < t
}

// Any reports whether any injection point fires for key — the
// "faulted block" predicate the chaos gate uses to decide which
// blocks must stay byte-identical to a fault-free run.
func (in *Injector) Any(key uint64) bool {
	for pt := Point(0); pt < NumPoints; pt++ {
		if in.Should(pt, key) {
			return true
		}
	}
	return false
}

// stallSlice bounds one sleep so a stalled worker re-checks its soft
// deadline cooperatively instead of oversleeping it.
const stallSlice = 200 * time.Microsecond

// Stall runs the SlowBlock stall: it sleeps in short slices until the
// plan's SlowDelay is consumed or the soft deadline passes, and
// reports whether the deadline expired (the caller then demotes the
// block instead of finishing the stalled attempt). A zero deadline
// means no deadline: the stall runs to completion and returns false.
func (in *Injector) Stall(deadline time.Time) bool {
	if in == nil {
		return false
	}
	end := time.Now().Add(in.slow)
	for {
		now := time.Now()
		if !deadline.IsZero() && now.After(deadline) {
			return true
		}
		if !now.Before(end) {
			return false
		}
		d := end.Sub(now)
		if d > stallSlice {
			d = stallSlice
		}
		time.Sleep(d)
	}
}

// CorruptPredArc overwrites the delay of one deterministically chosen
// record in d's frozen predecessor array (the Succs lists and the
// successor records keep the true delay), reporting whether anything was corrupted. The scheduler
// derives timing from successor records, so the schedule itself is
// computed against the true delays — the corruption is only visible
// to a consumer that checks the predecessor side, which is exactly
// what the engine's legality gate does. The bump is large enough
// (2^20 cycles) that no legitimate schedule can satisfy it.
func (in *Injector) CorruptPredArc(d *dag.DAG, key uint64) bool {
	if in == nil || d == nil || d.NumArcs == 0 {
		return false
	}
	preds := d.Freeze().PackedPredArcs()
	k := mix(in.seed, NumPoints+1, key) % uint64(len(preds))
	p := preds[k]
	preds[k] = dag.PackArc(p.Node(), p.Kind(), p.Delay()+1<<20)
	return true
}

// InjectedPanic is the value PanicBuilder panics with, so a recover
// boundary can tell an injected panic from a genuine bug when
// reporting.
type InjectedPanic struct {
	Point Point
	Key   uint64
}

// Error renders the panic value.
func (p InjectedPanic) Error() string {
	return fmt.Sprintf("fault: injected %s (block key %#x)", p.Point, p.Key)
}

// FlipBit flips one deterministically chosen bit in one element of
// order (a scheduled-order copy), reporting whether a flip happened
// (false for an empty order). The flipped element no longer names its
// node, so an exactly-once permutation check always catches it.
func (in *Injector) FlipBit(order []int32, key uint64) bool {
	if in == nil || len(order) == 0 {
		return false
	}
	h := mix(in.seed, NumPoints+2, key)
	elem := int(h % uint64(len(order)))
	bit := uint((h >> 32) % 31)
	order[elem] ^= 1 << bit
	return true
}
