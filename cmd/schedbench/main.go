// Schedbench regenerates the experimental tables of Smotherman et al.
// (MICRO-24, 1991): Table 3 (benchmark structure), Table 4 (the n²
// construction approach), Table 5 (the two table-building approaches)
// and the Figure 1 transitive-arc demonstration.
//
// Usage:
//
//	schedbench [-table3] [-table4] [-table5] [-fig1] [-all]
//	           [-model pipe1|fpu|asym|super2] [-runs 5] [-bench name]
//	schedbench -diff fresh.ndjson [-json BENCH_perfbench.ndjson]
//	schedbench -diffselftest [-json BENCH_perfbench.ndjson]
//
// With no table flags, -all is assumed. As in the paper, Table 4 stops
// at fpppp-1000: the n² approach's "excessive time and space
// requirements" are the point being demonstrated, and the instruction
// window caps them.
//
// -diff and -diffselftest are the perf gate (see diff.go): the median
// of fresh perfbench result lines is compared against the committed
// baseline's under BENCHMARK.json's per-metric bounds, exiting 3 on
// regression; the self-test proves the gate fires on injected
// regressions.
//
// Exit codes are distinct by failure class: 0 success, 1 runtime
// failure, 2 usage error (bad flag or flag value), 3 performance
// regression flagged by -diff, 4 internal error (a panic caught at the
// top-level guard).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"daginsched/internal/machine"
	"daginsched/internal/tables"
)

// The tool's exit codes, one per failure class.
const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
	exitRegress = 3
	exitPanic   = 4
)

func main() { os.Exit(run()) }

// run is main behind the panic guard: a caught panic is reported as a
// one-line diagnostic and the distinct internal-error exit code, never
// a stack trace.
func run() (code int) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "schedbench: internal error: %v\n", p)
			code = exitPanic
		}
	}()
	var (
		t3       = flag.Bool("table3", false, "print Table 3 (structural data)")
		t4       = flag.Bool("table4", false, "print Table 4 (n**2 approach)")
		t5       = flag.Bool("table5", false, "print Table 5 (table-building approaches)")
		fig1     = flag.Bool("fig1", false, "print the Figure 1 demonstration")
		quality  = flag.Bool("quality", false, "print the cross-algorithm quality comparison")
		optim    = flag.Bool("optimality", false, "print the branch-and-bound optimality study (future work 1)")
		winners  = flag.Bool("winners", false, "print the best-algorithm-by-block-size study (future work 2)")
		scaling  = flag.Bool("scaling", false, "print the DAG-construction scaling study (single growing block)")
		ablate   = flag.Bool("ablate", false, "print the per-rank heuristic ablation study")
		maxBB    = flag.Int("maxbb", 12, "block-size cap for the optimality study")
		all      = flag.Bool("all", false, "print everything")
		model    = flag.String("model", "pipe1", "machine model (pipe1, fpu, asym, super2)")
		runs     = flag.Int("runs", 5, "timing runs to average (the paper used five)")
		bench    = flag.String("bench", "", "restrict to one benchmark (prefix match)")
		jsonOut  = flag.String("json", "BENCH_perfbench.ndjson", "baseline perfbench result lines for -diff and -diffselftest")
		diffPath = flag.String("diff", "", "fresh perfbench result lines to gate against the -json baseline; exit 3 on perf regression")
		selftest = flag.Bool("diffselftest", false, "verify the -diff gate catches injected regressions against the -json baseline")
	)
	flag.Parse()
	if !*t3 && !*t4 && !*t5 && !*fig1 && !*quality && !*optim && !*winners && !*scaling && !*ablate &&
		*diffPath == "" && !*selftest {
		*all = true
	}
	m, ok := machine.ByName(*model)
	if !ok {
		return fail(exitUsage, "unknown machine model %q", *model)
	}

	// The diff gate is a standalone mode: it reads result lines that
	// perfbench runs produced and never touches the engine.
	if *diffPath != "" || *selftest {
		if *selftest {
			if err := runDiffSelfTest(*jsonOut); err != nil {
				return fail(exitRuntime, "diff self-test: %v", err)
			}
		}
		if *diffPath != "" {
			regressed, err := runDiff(*diffPath, *jsonOut)
			if err != nil {
				return fail(exitRuntime, "diff gate: %v", err)
			}
			if regressed {
				return fail(exitRegress, "performance regressed past a BENCHMARK.json bound")
			}
		}
		return exitOK
	}

	sets := tables.Table3Sets()
	if *bench != "" {
		sets = keep(sets, func(name string) bool { return strings.HasPrefix(name, *bench) })
		if len(sets) == 0 {
			return fail(exitUsage, "no benchmark matches %q", *bench)
		}
	}

	if *all || *fig1 {
		fmt.Println(tables.Figure1(m))
	}
	if *all || *t3 {
		fmt.Println(tables.Table3(sets))
	}
	if *all || *t4 {
		// The paper did not run n² past a 1000-instruction window.
		fmt.Println(tables.Table4(keep(sets, windowed), m, *runs))
	}
	if *all || *t5 {
		fmt.Println(tables.Table5(sets, m, *runs))
	}
	if *quality {
		// The n²-based algorithms make full fpppp impractical; keep the
		// quality race to windowed sets, like Table 4.
		fmt.Println(tables.QualityTable(keep(sets, windowed), m))
	}
	if *optim {
		fmt.Println(tables.OptimalityTable(keep(sets, func(name string) bool {
			return !strings.HasPrefix(name, "fpppp-")
		}), m, *maxBB))
	}
	if *scaling {
		fmt.Println(tables.ScalingTable(m, nil, *runs))
	}
	if *ablate {
		fmt.Println(tables.AblationTable(keep(sets, func(name string) bool {
			return !strings.HasPrefix(name, "fpppp")
		}), m))
	}
	if *winners {
		fmt.Println(tables.WinnersBySize(keep(sets, windowed), m))
	}
	return exitOK
}

// keep returns the sets whose names ok accepts.
func keep(sets []tables.BenchmarkSet, ok func(name string) bool) []tables.BenchmarkSet {
	var out []tables.BenchmarkSet
	for _, s := range sets {
		if ok(s.Name) {
			out = append(out, s)
		}
	}
	return out
}

// windowed accepts every set the n²-based studies can afford: all but
// full fpppp and its 2000- and 4000-instruction windows.
func windowed(name string) bool {
	return name != "fpppp" && name != "fpppp-2000" && name != "fpppp-4000"
}

// fail prints the one-line diagnostic and returns the exit code.
func fail(code int, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "schedbench: "+format+"\n", args...)
	return code
}
