package tables

import (
	"fmt"
	"strings"

	"daginsched/internal/dag"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/sched"
)

// OptimalityTable answers the paper's first future-work question —
// "determining if an optimal branch-and-bound scheduler would benefit
// performance for small basic blocks" — empirically: over every block
// of at most maxBB instructions, it reports how often each Table 2
// algorithm already achieves the branch-and-bound optimum and the
// average excess when it does not.
func OptimalityTable(sets []BenchmarkSet, m *machine.Model, maxBB int) string {
	if maxBB <= 0 || maxBB > sched.MaxBranchAndBound {
		maxBB = 16
	}
	algos := sched.Table2()
	var b strings.Builder
	fmt.Fprintf(&b, "Branch-and-bound study (blocks <= %d insts, machine %s)\n\n", maxBB, m.Name)
	fmt.Fprintf(&b, "%-12s %8s", "benchmark", "blocks")
	for _, al := range algos {
		fmt.Fprintf(&b, " %12s", shortName(al.Name))
	}
	fmt.Fprintln(&b, "   (column: % of blocks scheduled optimally)")
	fmt.Fprintln(&b, strings.Repeat("-", 24+13*len(algos)))
	for _, set := range sets {
		rt := resource.NewTable(resource.MemExprModel)
		optimal := make([]int, len(algos))
		var excess int64
		n := 0
		for _, blk := range set.Blocks {
			if blk.Len() > maxBB || blk.Len() < 2 {
				continue
			}
			n++
			dags := buildShared(algos, blk, m, rt)
			opt := map[*dag.DAG]int32{} // the optimum depends only on the DAG
			for ai, al := range algos {
				d := dags[ai]
				if _, ok := opt[d]; !ok {
					opt[d] = sched.BranchAndBound(d, m).Cycles
				}
				got := sched.Timed(d, m, al.Run(d, m).Order).Cycles
				if got == opt[d] {
					optimal[ai]++
				} else {
					excess += int64(got - opt[d])
				}
			}
		}
		if n == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s %8d", set.Name, n)
		for ai := range algos {
			fmt.Fprintf(&b, " %11.1f%%", 100*float64(optimal[ai])/float64(n))
		}
		fmt.Fprintf(&b, "   avg excess when suboptimal: %.2f cycles\n",
			float64(excess)/float64(max(1, n*len(algos)-sum(optimal))))
	}
	return b.String()
}

// WinnersBySize answers the second future-work question —
// "characterizing the attributes of larger basic blocks that enable
// certain heuristics to outperform others" — along the most basic
// attribute, block size: blocks are bucketed by instruction count and
// each bucket reports which algorithm produced the (possibly shared)
// best cycle count most often.
func WinnersBySize(sets []BenchmarkSet, m *machine.Model) string {
	algos := sched.Table2()
	buckets := []struct {
		name     string
		min, max int
	}{
		{"2-4", 2, 4}, {"5-8", 5, 8}, {"9-16", 9, 16},
		{"17-32", 17, 32}, {"33-128", 33, 128}, {"129+", 129, 1 << 30},
	}
	wins := make([][]int, len(buckets))
	counts := make([]int, len(buckets))
	for i := range wins {
		wins[i] = make([]int, len(algos))
	}
	for _, set := range sets {
		rt := resource.NewTable(resource.MemExprModel)
		for _, blk := range set.Blocks {
			bi := -1
			for k, bk := range buckets {
				if blk.Len() >= bk.min && blk.Len() <= bk.max {
					bi = k
					break
				}
			}
			if bi < 0 {
				continue
			}
			counts[bi]++
			best := int32(1 << 30)
			cycles := make([]int32, len(algos))
			dags := buildShared(algos, blk, m, rt)
			for ai, al := range algos {
				d := dags[ai]
				cycles[ai] = sched.Timed(d, m, al.Run(d, m).Order).Cycles
				if cycles[ai] < best {
					best = cycles[ai]
				}
			}
			for ai := range algos {
				if cycles[ai] == best {
					wins[bi][ai]++
				}
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Best-schedule share by block size (machine %s; ties shared)\n\n", m.Name)
	fmt.Fprintf(&b, "%-8s %8s", "size", "blocks")
	for _, al := range algos {
		fmt.Fprintf(&b, " %12s", shortName(al.Name))
	}
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, strings.Repeat("-", 20+13*len(algos)))
	for bi, bk := range buckets {
		if counts[bi] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-8s %8d", bk.name, counts[bi])
		for ai := range algos {
			fmt.Fprintf(&b, " %11.1f%%", 100*float64(wins[bi][ai])/float64(counts[bi]))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
