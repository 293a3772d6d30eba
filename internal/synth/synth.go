// Package synth generates the synthetic benchmark suite that stands in
// for the paper's nine compiled programs (GNU grep/regex/dfa, GCC's
// cccp, Linpack, Livermore Loops, and SPEC's tomcatv/nasa7/fpppp in
// SPARC assembly). The original inputs — SunOS 4.1.1 "cc -O4 -S"
// output — are not reproducible today, so each benchmark is replaced by
// a deterministic generator calibrated to Table 3 of the paper: block
// count, instruction count, maximum block size, and unique memory
// expressions per block (average and maximum). Those are exactly the
// inputs that differentiate the three DAG-construction algorithms, so
// the substitution preserves the behavior Tables 4 and 5 measure.
//
// Two structural quirks of the originals are reproduced deliberately:
//
//   - fpppp is dominated by one enormous basic block (11750
//     instructions here; windowing it at 1000/2000/4000 reproduces the
//     fpppp-1000/-2000/-4000 rows, including their block counts), and
//   - fpppp's symbolic memory address expressions cluster "more toward
//     the end of the large basic block" (Section 6), the placement that
//     makes backward-pass table building intern memory resources early
//     and explains the forward/backward timing asymmetry.
package synth

import (
	"daginsched/internal/block"
)

// Profile calibrates one synthetic benchmark to its Table 3 row.
type Profile struct {
	Name string
	// Blocks and Insts are the exact Table 3 structural targets.
	Blocks int
	Insts  int
	// MaxBlock is the largest basic block. SecondBlock, when non-zero,
	// is one additional outsized block (fpppp needs a ~2500-instruction
	// second block for the windowed block counts to come out right).
	MaxBlock    int
	SecondBlock int
	// MemAvg and MemMax target unique memory expressions per block.
	MemAvg float64
	MemMax int
	// FP selects the floating-point instruction mix (Fortran kernels)
	// over the integer mix (C programs).
	FP bool
	// MemLate biases first encounters of new memory expressions toward
	// the end of large blocks (the fpppp quirk).
	MemLate bool
	// Seed fixes the generator stream.
	Seed uint64
}

// Profiles returns the nine Table 3 benchmarks. The fpppp-1000/2000/
// 4000 rows are produced by windowing the fpppp profile with
// block.SplitWindow, exactly as the paper produced them.
func Profiles() []Profile {
	return []Profile{
		{Name: "grep", Blocks: 730, Insts: 1739, MaxBlock: 34, MemAvg: 0.32, MemMax: 5, Seed: 101},
		{Name: "regex", Blocks: 873, Insts: 2417, MaxBlock: 52, MemAvg: 0.31, MemMax: 9, Seed: 102},
		{Name: "dfa", Blocks: 1623, Insts: 4760, MaxBlock: 45, MemAvg: 0.67, MemMax: 13, Seed: 103},
		{Name: "cccp", Blocks: 3480, Insts: 8831, MaxBlock: 36, MemAvg: 0.35, MemMax: 10, Seed: 104},
		{Name: "linpack", Blocks: 390, Insts: 3391, MaxBlock: 145, MemAvg: 2.58, MemMax: 62, FP: true, Seed: 105},
		{Name: "lloops", Blocks: 263, Insts: 3753, MaxBlock: 124, MemAvg: 4.37, MemMax: 40, FP: true, Seed: 106},
		{Name: "tomcatv", Blocks: 112, Insts: 1928, MaxBlock: 326, MemAvg: 5.24, MemMax: 68, FP: true, Seed: 107},
		{Name: "nasa7", Blocks: 756, Insts: 10654, MaxBlock: 284, MemAvg: 4.23, MemMax: 60, FP: true, Seed: 108},
		{Name: "fpppp", Blocks: 662, Insts: 25545, MaxBlock: 11750, SecondBlock: 2500,
			MemAvg: 4.76, MemMax: 324, FP: true, MemLate: true, Seed: 109},
	}
}

// ByName returns a profile by benchmark name.
func ByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// rng is SplitMix64: tiny, fast, deterministic.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Generate produces the benchmark's basic blocks. Block count,
// instruction count, maximum block size and per-block unique memory
// expressions match the profile exactly (memory averages to within the
// rounding the fix-up distribution allows).
func (p Profile) Generate() []*block.Block {
	return p.generateSeeded(p.Seed)
}

// passStride reseeds each generation pass: pass k of a profile runs on
// Seed + k·passStride (the SplitMix64 gamma, so consecutive passes land
// in well-separated stream positions). Pass 0 therefore runs on Seed
// itself and emits exactly the blocks Generate returns.
const passStride = 0x9e3779b97f4a7c15

// GeneratePass materializes generation pass k of the profile: the
// corpus regenerated on a reseeded stream, so a long run can schedule
// a continuing supply of fresh blocks instead of re-running one corpus
// against a warm cache. GeneratePass(0) is Generate.
func (p Profile) GeneratePass(pass uint64) []*block.Block {
	return p.generateSeeded(p.Seed + pass*passStride)
}

// generateSeeded is Generate on an explicit seed (GeneratePass uses
// reseeded streams for later passes).
func (p Profile) generateSeeded(seed uint64) []*block.Block {
	r := &rng{s: seed}
	sizes := p.blockSizes(r)
	memCounts := p.memCounts(r, sizes)
	blocks := make([]*block.Block, len(sizes))
	sc := &genScratch{}
	start := 0
	for i, n := range sizes {
		g := &blockGen{r: r, p: p, n: n, mem: memCounts[i], sc: sc}
		b := &block.Block{Name: blockName(p.Name, i), Start: start, Insts: g.generate()}
		for j := range b.Insts {
			b.Insts[j].Index = j
		}
		blocks[i] = b
		start += n
	}
	return blocks
}

// GenerateWindowed applies an instruction window (fpppp-1000/2000/4000).
func (p Profile) GenerateWindowed(max int) []*block.Block {
	return block.SplitWindow(p.Generate(), max)
}

func blockName(bench string, i int) string {
	buf := make([]byte, 0, len(bench)+8)
	buf = append(buf, bench...)
	buf = append(buf, '.')
	if i == 0 {
		buf = append(buf, '0')
	}
	var digits [10]byte
	d := 0
	for v := i; v > 0; v /= 10 {
		digits[d] = byte('0' + v%10)
		d++
	}
	for d > 0 {
		d--
		buf = append(buf, digits[d])
	}
	return string(buf)
}

// blockSizes distributes p.Insts over p.Blocks blocks: the outsized
// blocks first, the remainder drawn from a skewed small-block
// distribution and fixed up to the exact total.
func (p Profile) blockSizes(r *rng) []int {
	sizes := make([]int, 0, p.Blocks)
	remaining := p.Insts
	if p.MaxBlock > 0 {
		sizes = append(sizes, p.MaxBlock)
		remaining -= p.MaxBlock
	}
	if p.SecondBlock > 0 {
		sizes = append(sizes, p.SecondBlock)
		remaining -= p.SecondBlock
	}
	rest := p.Blocks - len(sizes)
	if rest <= 0 {
		return sizes
	}
	// Cap small blocks below the named maxima so the max column stays
	// exact. The mean of the skewed draw is fixed up afterwards.
	cap := p.MaxBlock - 1
	if p.SecondBlock > 0 {
		cap = p.SecondBlock / 2
	}
	mean := remaining / rest
	if mean < 1 {
		mean = 1
	}
	small := make([]int, rest)
	total := 0
	for i := range small {
		// Geometric-ish: most blocks tiny, a tail up to ~6× the mean.
		v := 1 + r.intn(mean) + r.intn(mean)
		if r.intn(8) == 0 {
			v += r.intn(4*mean + 1)
		}
		if v > cap {
			v = cap
		}
		small[i] = v
		total += v
	}
	// Fix up to the exact instruction total.
	for guard := 0; total != remaining; guard++ {
		if guard > 64*p.Insts {
			panic("synth: block-size fix-up cannot reach the profile total")
		}
		i := r.intn(rest)
		switch {
		case total < remaining && small[i] < cap:
			small[i]++
			total++
		case total > remaining && small[i] > 1:
			small[i]--
			total--
		}
	}
	return append(sizes, small...)
}

// memCounts assigns each block its unique-memory-expression count:
// the outsized block gets MemMax; the rest are drawn around the density
// needed to land the benchmark average, clipped to the block size.
func (p Profile) memCounts(r *rng, sizes []int) []int {
	counts := make([]int, len(sizes))
	target := int(p.MemAvg*float64(p.Blocks) + 0.5)
	counts[0] = p.MemMax
	assigned := p.MemMax
	for i := 1; i < len(sizes); i++ {
		max := sizes[i] / 2
		if max < 1 {
			max = 1
		}
		if max > p.MemMax-1 {
			max = p.MemMax - 1
		}
		// Real code keeps expression density modest outside the one
		// pathological block; an uncapped draw would let a mid-sized
		// block rival the giant block's total and distort the windowed
		// Table 3 maxima.
		if dense := 8 + sizes[i]/20; max > dense {
			max = dense
		}
		counts[i] = r.intn(max + 1)
		if counts[i] > sizes[i] {
			counts[i] = sizes[i]
		}
		assigned += counts[i]
	}
	// Fix up toward the exact target; bail once attempts stop landing
	// (the average is then as close as the constraints allow).
	for guard := 0; assigned != target && guard < 64*p.Blocks; guard++ {
		i := 1 + r.intn(len(sizes)-1)
		switch {
		case assigned > target && counts[i] > 0:
			counts[i]--
			assigned--
		case assigned < target && counts[i] < sizes[i]/2 && counts[i] < p.MemMax-1:
			counts[i]++
			assigned++
		}
	}
	return counts
}
