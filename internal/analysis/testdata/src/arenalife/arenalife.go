// Seeded violations for the arenalife pass: arena-backed storage
// (package buf here — the same taint rules cover dag.BuildArena and
// bitset.Slab.Carve) escaping into package-level variables or across
// an exported boundary.
package arenalife

import (
	"daginsched/internal/buf"
	"daginsched/internal/dag"
)

var global []int32

var keptArcs []dag.PackedArc

var registry struct{ keep []int32 }

// Leak stores an arena-backed slice where it outlives the arena.
func Leak(n int) {
	s := buf.Int32(nil, n)
	global = s // want [arenalife] arena-backed value stored in package-level global
}

// LeakField stores through a selector rooted at a package-level var.
func LeakField(n int) {
	v := buf.Int32(nil, n)
	registry.keep = v // want [arenalife] arena-backed value stored in package-level registry
}

// LeakDerived taints through derivation: a reslice of arena storage
// is still arena storage.
func LeakDerived(n int) {
	s := buf.Int32(nil, n)
	tail := s[1:]
	global = tail // want [arenalife] arena-backed value stored in package-level global
}

// Expose returns arena storage from an exported function of a
// non-arena package: callers outlive the next BuildInto.
func Expose(n int) []int32 {
	s := buf.Int32(nil, n)
	return s // want [arenalife] arena-backed value returned across the exported boundary
}

// ExposeDirect returns the source call itself.
func ExposeDirect(n int) []int32 {
	return buf.Int32(nil, n) // want [arenalife] arena-backed value returned across the exported boundary
}

// KeepPacked stores a frozen view's packed records, which the arena
// refills on its next BuildInto. The view arrives untainted as a
// parameter, so only the accessor itself marks the result.
func KeepPacked(c *dag.CSR) {
	keptArcs = c.PackedSuccArcs() // want [arenalife] arena-backed value stored in package-level keptArcs
}

// internal is unexported: handing arena storage to a same-package
// caller is the documented reuse protocol, not a leak.
func internal(n int) []int32 {
	return buf.Int32(nil, n)
}

// CopyOut is the sanctioned pattern: the exported boundary returns a
// copy, never the arena's backing array.
func CopyOut(n int) []int32 {
	s := buf.Int32(nil, n)
	out := make([]int32, len(s))
	copy(out, s)
	return out
}

// localOnly keeps arena storage strictly block-local.
func localOnly(n int) int32 {
	s := buf.Int32(nil, n)
	var sum int32
	for _, v := range s {
		sum += v
	}
	return sum
}

// Suppressed documents a sanctioned exception.
func Suppressed(n int) []int32 {
	s := buf.Int32(nil, n)
	//sched:lint-ignore arenalife caller is documented to copy before the next block
	return s
}

type scratch struct{ buf []int32 }

// fillLocal stores into a local struct, which dies with the frame.
func fillLocal(n int) int32 {
	var t scratch
	t.buf = buf.Int32(nil, n)
	return int32(len(t.buf))
}

var _ = internal
var _ = localOnly
var _ = fillLocal
