package main

import (
	"strconv"

	"daginsched/internal/asm"
	"daginsched/internal/block"
	"daginsched/internal/synth"
)

// seededProfiles returns the nine Table 3 profiles with each Seed
// overridden from the benchmark seed. The profiles' own seeds are
// folded in so the nine generator streams stay distinct, and the seed
// is mixed first so seed s+1 is not seed s one generation pass later
// (GeneratePass steps the seed by the same golden-ratio constant).
func seededProfiles(seed uint64) []synth.Profile {
	ps := synth.Profiles()
	m := mix64(seed)
	for i := range ps {
		ps[i].Seed += m
	}
	return ps
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// generatePass materializes generation pass k of every profile, one
// unit (compilation unit) per profile.
func generatePass(ps []synth.Profile, k uint64) [][]*block.Block {
	units := make([][]*block.Block, len(ps))
	for i, p := range ps {
		units[i] = p.GeneratePass(k)
	}
	return units
}

// appendBlockText renders b as assembly under its own label. Every
// block gets one: generated blocks carry none, and without a label two
// consecutive blocks that do not end in a control transfer would fuse
// when the program re-partitions the text.
func appendBlockText(dst []byte, label int, b *block.Block) []byte {
	dst = append(dst, 'L')
	dst = strconv.AppendInt(dst, int64(label), 10)
	dst = append(dst, ":\n"...)
	return append(dst, asm.Print(b.Insts)...)
}

// unitText renders a whole unit, labelling blocks by position.
func unitText(blocks []*block.Block) []byte {
	var dst []byte
	for i, b := range blocks {
		dst = appendBlockText(dst, i, b)
	}
	return dst
}

// countInsts sums the instruction counts of blocks.
func countInsts(blocks []*block.Block) int64 {
	var n int64
	for _, b := range blocks {
		n += int64(b.Len())
	}
	return n
}
