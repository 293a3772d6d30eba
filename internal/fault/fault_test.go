package fault

import (
	"strings"
	"testing"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/testgen"
)

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		ok   bool
	}{
		{"nil plan", nil, true},
		{"zero plan", &Plan{}, true},
		{"all rates set", &Plan{Seed: 1, PanicBuilder: 0.5, CorruptArc: 1, CacheBitflip: 0.01, SlowBlock: 0.99}, true},
		{"negative rate", &Plan{CorruptArc: -0.1}, false},
		{"rate above one", &Plan{CacheBitflip: 1.5}, false},
		{"negative slow delay", &Plan{SlowBlock: 0.1, SlowDelay: -time.Millisecond}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
			if _, err := NewInjector(tc.plan); (err == nil) != tc.ok {
				t.Fatalf("NewInjector error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestNilInjectorNoOps pins the disabled state: a nil or inert plan
// compiles to a nil *Injector, and every method on a nil Injector is a
// safe no-op — that is the entire fault-free overhead contract.
func TestNilInjectorNoOps(t *testing.T) {
	for _, p := range []*Plan{nil, {}, {Seed: 99}} {
		in, err := NewInjector(p)
		if err != nil {
			t.Fatalf("NewInjector(%+v): %v", p, err)
		}
		if in != nil {
			t.Fatalf("NewInjector(%+v) = %+v, want nil (disabled)", p, in)
		}
	}
	var in *Injector
	if in.Should(PanicBuilder, 7) || in.Any(7) {
		t.Fatal("nil injector fired")
	}
	if in.Stall(time.Now().Add(-time.Second)) {
		t.Fatal("nil injector reported a deadline expiry")
	}
	if in.CorruptPredArc(nil, 7) {
		t.Fatal("nil injector corrupted an arc")
	}
	if in.FlipBit([]int32{1, 2, 3}, 7) {
		t.Fatal("nil injector flipped a bit")
	}
}

// TestInjectorDeterministic is the property the chaos gate rests on:
// two injectors compiled from the same plan make identical decisions,
// for every point, across any set of keys.
func TestInjectorDeterministic(t *testing.T) {
	p := &Plan{Seed: 42, PanicBuilder: 0.3, CorruptArc: 0.05, CacheBitflip: 0.5, SlowBlock: 0.001}
	a, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 4096; key++ {
		for pt := Point(0); pt < NumPoints; pt++ {
			if a.Should(pt, key) != b.Should(pt, key) {
				t.Fatalf("point %v key %d: decision differs between identical injectors", pt, key)
			}
		}
		if a.Any(key) != b.Any(key) {
			t.Fatalf("key %d: Any differs between identical injectors", key)
		}
	}
}

// TestInjectorRates checks the threshold compilation: rate 0 never
// fires, rate 1 always fires, and a fractional rate hits roughly its
// share of distinct keys.
func TestInjectorRates(t *testing.T) {
	in, err := NewInjector(&Plan{Seed: 7, PanicBuilder: 0.25, CorruptArc: 1})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 10000
	hits := 0
	for key := uint64(0); key < keys; key++ {
		if in.Should(PanicBuilder, key) {
			hits++
		}
		if !in.Should(CorruptArc, key) {
			t.Fatalf("key %d: rate-1 point did not fire", key)
		}
		if in.Should(CacheBitflip, key) || in.Should(SlowBlock, key) {
			t.Fatalf("key %d: rate-0 point fired", key)
		}
	}
	if hits < keys/5 || hits > 3*keys/10 {
		t.Fatalf("rate 0.25 fired on %d/%d keys, want roughly a quarter", hits, keys)
	}
}

// TestInjectorPointsIndependent checks the points draw independent
// coins: with equal rates, the panic set and the bitflip set must not
// coincide.
func TestInjectorPointsIndependent(t *testing.T) {
	in, err := NewInjector(&Plan{Seed: 3, PanicBuilder: 0.5, CacheBitflip: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	const keys = 4096
	for key := uint64(0); key < keys; key++ {
		if in.Should(PanicBuilder, key) == in.Should(CacheBitflip, key) {
			same++
		}
	}
	if same == keys {
		t.Fatal("points are perfectly correlated; they must draw independent coins")
	}
}

func TestStall(t *testing.T) {
	in, err := NewInjector(&Plan{Seed: 1, SlowBlock: 1, SlowDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !in.Stall(time.Now().Add(-time.Second)) {
		t.Fatal("Stall with an expired deadline must report expiry")
	}
	t0 := time.Now()
	if in.Stall(time.Time{}) {
		t.Fatal("Stall with no deadline must run to completion and report false")
	}
	if elapsed := time.Since(t0); elapsed < time.Millisecond/2 {
		t.Fatalf("deadline-free stall returned after %v, want about the 1ms SlowDelay", elapsed)
	}
	if in.Stall(time.Now().Add(time.Minute)) {
		t.Fatal("Stall must not report expiry when the deadline is far out")
	}
}

// buildDAG builds a real table DAG for the corruption test.
func buildDAG(t *testing.T, seed int64, n int) *dag.DAG {
	t.Helper()
	b := &block.Block{Name: "fault", Insts: testgen.Block(seed, n)}
	for i := range b.Insts {
		b.Insts[i].Index = i
	}
	rt := resource.NewTable(resource.MemExprModel)
	rt.PrepareBlock(b.Insts)
	return dag.TableBackward{}.Build(b, machine.Super2(), rt)
}

// TestCorruptPredArc checks the corruption is surgical: exactly one
// frozen predecessor record gains the 2^20 delay bump, the Succs lists
// and the successor records keep every true delay, and the choice is
// deterministic.
func TestCorruptPredArc(t *testing.T) {
	in, err := NewInjector(&Plan{Seed: 11, CorruptArc: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := buildDAG(t, 101, 60)
	if d.NumArcs == 0 {
		t.Fatal("test DAG has no arcs")
	}
	sumPacked := func(recs []dag.PackedArc) (s int64) {
		for _, p := range recs {
			s += int64(p.Delay())
		}
		return s
	}
	sumSucc := func() (s int64) {
		for i := range d.Nodes {
			for _, a := range d.Nodes[i].Succs {
				s += int64(a.Delay)
			}
		}
		if p := sumPacked(d.Freeze().PackedSuccArcs()); p != s {
			t.Fatalf("successor records sum to %d, Succs lists to %d", p, s)
		}
		return s
	}
	sumPred := func() int64 { return sumPacked(d.Freeze().PackedPredArcs()) }
	succBefore, predBefore := sumSucc(), sumPred()
	if succBefore != predBefore {
		t.Fatalf("CSR halves disagree before corruption: succ %d, pred %d", succBefore, predBefore)
	}
	const key = 0xfeed
	if !in.CorruptPredArc(d, key) {
		t.Fatal("CorruptPredArc reported nothing corrupted")
	}
	if got := sumSucc(); got != succBefore {
		t.Fatalf("successor side changed: delay sum %d, want %d", got, succBefore)
	}
	if got := sumPred(); got != predBefore+(1<<20) {
		t.Fatalf("pred delay sum %d, want exactly one 2^20 bump over %d", got, predBefore)
	}

	// Deterministic: the same injector corrupts the same arc of an
	// identically built DAG.
	d2 := buildDAG(t, 101, 60)
	in.CorruptPredArc(d2, key)
	got, want := d2.Freeze().PackedPredArcs(), d.Freeze().PackedPredArcs()
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("pred record %d: corruption not deterministic (%d vs %d)",
				k, got[k].Delay(), want[k].Delay())
		}
	}

	if in.CorruptPredArc(nil, key) {
		t.Fatal("CorruptPredArc on a nil DAG must be a no-op")
	}
	empty := &dag.DAG{}
	if in.CorruptPredArc(empty, key) {
		t.Fatal("CorruptPredArc on an arcless DAG must be a no-op")
	}
}

// TestFlipBit checks the bitflip poisons exactly one element by one
// bit, deterministically per key.
func TestFlipBit(t *testing.T) {
	in, err := NewInjector(&Plan{Seed: 5, CacheBitflip: 1})
	if err != nil {
		t.Fatal(err)
	}
	if in.FlipBit(nil, 1) {
		t.Fatal("FlipBit on an empty order must report false")
	}
	const n = 33
	orig := make([]int32, n)
	for i := range orig {
		orig[i] = int32(i)
	}
	for key := uint64(0); key < 64; key++ {
		got := append([]int32(nil), orig...)
		if !in.FlipBit(got, key) {
			t.Fatalf("key %d: FlipBit did not fire", key)
		}
		diffs := 0
		for i := range got {
			if got[i] != orig[i] {
				diffs++
				x := got[i] ^ orig[i]
				if x&(x-1) != 0 {
					t.Fatalf("key %d elem %d: %d -> %d is not a single-bit flip", key, i, orig[i], got[i])
				}
			}
		}
		if diffs != 1 {
			t.Fatalf("key %d: %d elements changed, want exactly 1", key, diffs)
		}
		again := append([]int32(nil), orig...)
		in.FlipBit(again, key)
		for i := range got {
			if got[i] != again[i] {
				t.Fatalf("key %d: flip not deterministic", key)
			}
		}
	}
}

func TestPointStringAndPanicValue(t *testing.T) {
	names := map[Point]string{
		PanicBuilder: "panic-builder",
		CorruptArc:   "corrupt-arc",
		CacheBitflip: "cache-bitflip",
		SlowBlock:    "slow-block",
	}
	for pt, want := range names {
		if pt.String() != want {
			t.Fatalf("Point(%d).String() = %q, want %q", pt, pt.String(), want)
		}
	}
	if Point(200).String() != "unknown" {
		t.Fatalf("out-of-range point string = %q", Point(200).String())
	}
	msg := InjectedPanic{Point: PanicBuilder, Key: 0xbeef}.Error()
	if !strings.Contains(msg, "panic-builder") || !strings.Contains(msg, "0xbeef") {
		t.Fatalf("InjectedPanic message %q missing point or key", msg)
	}
}
