package synth

import (
	"math"
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/resource"
)

// table3 holds the paper's Table 3 rows for the nine benchmarks.
var table3 = map[string]struct {
	blocks, insts, maxB, memMax int
	avgB, memAvg                float64
}{
	"grep":    {730, 1739, 34, 5, 2.38, 0.32},
	"regex":   {873, 2417, 52, 9, 2.77, 0.31},
	"dfa":     {1623, 4760, 45, 13, 2.93, 0.67},
	"cccp":    {3480, 8831, 36, 10, 2.54, 0.35},
	"linpack": {390, 3391, 145, 62, 8.69, 2.58},
	"lloops":  {263, 3753, 124, 40, 14.27, 4.37},
	"tomcatv": {112, 1928, 326, 68, 17.21, 5.24},
	"nasa7":   {756, 10654, 284, 60, 14.09, 4.23},
	"fpppp":   {662, 25545, 11750, 324, 38.59, 4.76},
}

func measure(t *testing.T, blocks []*block.Block) block.Stats {
	t.Helper()
	return block.Measure(blocks, func(b *block.Block) int {
		return resource.UniqueMemExprs(b.Insts)
	})
}

func TestProfilesMatchTable3(t *testing.T) {
	for _, p := range Profiles() {
		want := table3[p.Name]
		s := measure(t, p.Generate())
		if s.Blocks != want.blocks {
			t.Errorf("%s: blocks = %d, want %d", p.Name, s.Blocks, want.blocks)
		}
		if s.Insts != want.insts {
			t.Errorf("%s: insts = %d, want %d", p.Name, s.Insts, want.insts)
		}
		if s.MaxBlockLen != want.maxB {
			t.Errorf("%s: max block = %d, want %d", p.Name, s.MaxBlockLen, want.maxB)
		}
		if math.Abs(s.AvgBlockLen-want.avgB) > 0.02 {
			t.Errorf("%s: avg block = %.2f, want %.2f", p.Name, s.AvgBlockLen, want.avgB)
		}
		if s.MaxUniqueMem != want.memMax {
			t.Errorf("%s: max mem exprs = %d, want %d", p.Name, s.MaxUniqueMem, want.memMax)
		}
		if math.Abs(s.AvgUniqueMem-want.memAvg) > 0.10*want.memAvg+0.02 {
			t.Errorf("%s: avg mem exprs = %.2f, want %.2f", p.Name, s.AvgUniqueMem, want.memAvg)
		}
	}
}

// TestFppppWindowedBlockCounts reproduces Table 3's fpppp-1000/2000/
// 4000 rows: windowing must yield the paper's block counts exactly.
func TestFppppWindowedBlockCounts(t *testing.T) {
	p, ok := ByName("fpppp")
	if !ok {
		t.Fatal("fpppp profile missing")
	}
	cases := []struct{ window, blocks, maxB int }{
		{1000, 675, 1000},
		{2000, 668, 2000},
		{4000, 664, 4000},
	}
	for _, c := range cases {
		s := measure(t, p.GenerateWindowed(c.window))
		if s.Blocks != c.blocks {
			t.Errorf("fpppp-%d: blocks = %d, want %d", c.window, s.Blocks, c.blocks)
		}
		if s.MaxBlockLen != c.maxB {
			t.Errorf("fpppp-%d: max block = %d, want %d", c.window, s.MaxBlockLen, c.maxB)
		}
		if s.Insts != 25545 {
			t.Errorf("fpppp-%d: insts = %d", c.window, s.Insts)
		}
	}
}

func TestDeterministic(t *testing.T) {
	p, _ := ByName("grep")
	a := p.Generate()
	b := p.Generate()
	if len(a) != len(b) {
		t.Fatal("nondeterministic block count")
	}
	for i := range a {
		if len(a[i].Insts) != len(b[i].Insts) {
			t.Fatalf("block %d: nondeterministic size", i)
		}
		for j := range a[i].Insts {
			if a[i].Insts[j].String() != b[i].Insts[j].String() {
				t.Fatalf("block %d inst %d: %q != %q", i, j,
					a[i].Insts[j].String(), b[i].Insts[j].String())
			}
		}
	}
}

func TestMemLateBias(t *testing.T) {
	p, _ := ByName("fpppp")
	blocks := p.Generate()
	big := blocks[0]
	if big.Len() != 11750 {
		t.Fatalf("big block len %d", big.Len())
	}
	early, late := 0, 0
	for i, in := range big.Insts {
		if in.Op.IsLoad() || in.Op.IsStore() {
			if i < big.Len()*2/3 {
				early++
			} else {
				late++
			}
		}
	}
	if late <= early {
		t.Errorf("fpppp memory ops not biased late: early %d, late %d", early, late)
	}
}

func TestIntProfilesAreIntegerCode(t *testing.T) {
	p, _ := ByName("grep")
	for _, b := range p.Generate() {
		for _, in := range b.Insts {
			if in.Op.Class().IsFP() {
				t.Fatalf("grep block contains FP op %v", in.Op)
			}
		}
	}
}

func TestFPProfilesContainFP(t *testing.T) {
	p, _ := ByName("linpack")
	fp := 0
	total := 0
	for _, b := range p.Generate() {
		for _, in := range b.Insts {
			total++
			if in.Op.Class().IsFP() {
				fp++
			}
		}
	}
	if fp*3 < total {
		t.Errorf("linpack FP fraction too low: %d/%d", fp, total)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := ByName("dhrystone"); ok {
		t.Error("unknown benchmark resolved")
	}
}

func TestBlockNamesUnique(t *testing.T) {
	p, _ := ByName("regex")
	seen := map[string]bool{}
	for _, b := range p.Generate() {
		if seen[b.Name] {
			t.Fatalf("duplicate block name %q", b.Name)
		}
		seen[b.Name] = true
	}
}

func TestBlockIndicesAssigned(t *testing.T) {
	p, _ := ByName("grep")
	for _, b := range p.Generate() {
		for i, in := range b.Insts {
			if in.Index != i {
				t.Fatalf("block %s inst %d has Index %d", b.Name, i, in.Index)
			}
		}
	}
}
