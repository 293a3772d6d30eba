package tables

import (
	"fmt"
	"strings"

	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/sched"
)

// AblationTable generalizes the paper's Section 5 observation that
// Shieh & Papachristou's last-ranked heuristic "could possibly be
// omitted or replaced with little effect": for every Table 2 algorithm
// it drops each ranked heuristic in turn and reports the change in
// total scheduled cycles over the given benchmarks. A near-zero column
// means the rank is dead weight on this workload; a large positive
// column means the rank carries the algorithm.
func AblationTable(sets []BenchmarkSet, m *machine.Model) string {
	// One pass scores every algorithm and its one-rank-short variants,
	// which share their base's construction and so its DAG.
	bases := sched.Table2()
	var variants []*sched.Algorithm
	for _, base := range bases {
		variants = append(variants, base)
		for rank := range base.Ranked {
			variants = append(variants, cloneWithout(base, rank))
		}
	}
	totals := make([]int64, len(variants))
	for _, set := range sets {
		rt := resource.NewTable(resource.MemExprModel)
		for _, blk := range set.Blocks {
			dags := buildShared(variants, blk, m, rt)
			for v, al := range variants {
				totals[v] += int64(sched.Timed(dags[v], m, al.Run(dags[v], m).Order).Cycles)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Heuristic ablation: %% cycle increase when one rank is dropped (machine %s)\n\n", m.Name)
	v := 0
	for _, base := range bases {
		full := totals[v]
		v++
		fmt.Fprintf(&b, "%-20s (full: %d cycles)\n", base.Name, full)
		for rank := range base.Ranked {
			delta := 100 * float64(totals[v]-full) / float64(full)
			v++
			fmt.Fprintf(&b, "    - rank %d (%s): %+0.2f%%\n",
				rank+1, base.Ranked[rank].Key, delta)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// cloneWithout copies an algorithm minus one ranked heuristic.
func cloneWithout(al *sched.Algorithm, rank int) *sched.Algorithm {
	c := *al
	c.Ranked = make([]sched.RankedKey, 0, len(al.Ranked)-1)
	c.Ranked = append(c.Ranked, al.Ranked[:rank]...)
	c.Ranked = append(c.Ranked, al.Ranked[rank+1:]...)
	return &c
}
