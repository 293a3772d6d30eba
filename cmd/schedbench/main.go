// Schedbench regenerates the experimental tables of Smotherman et al.
// (MICRO-24, 1991): Table 3 (benchmark structure), Table 4 (the n²
// construction approach), Table 5 (the two table-building approaches)
// and the Figure 1 transitive-arc demonstration.
//
// Usage:
//
//	schedbench [-table3] [-table4] [-table5] [-fig1] [-all]
//	           [-model pipe1|fpu|asym|super2] [-runs 5] [-bench name]
//	schedbench -parallel [-workers N] [-builder tableb|tablef]
//	           [-verify] [-cache=bool] [-adaptive=bool]
//	           [-packedsel=bool] [-crossover N] [-json BENCH_engine.json]
//	schedbench -chaos [-seed N] [-faultrate r] [-workers N]
//	           [-bench name]
//	schedbench -stream [-insts 100e6] [-depth N] [-workers N]
//	           [-bench name] [-json BENCH_engine.json]
//	schedbench -cachefile sched.cache [-warmexpect 0.99] [-workers N]
//	           [-json BENCH_engine.json]
//	schedbench -serve http://127.0.0.1:7077 [-serverate 50]
//	           [-serveduration 3s] [-servetenants 3] [-servewarm 0.9]
//	           [-servecheck] [-json BENCH_engine.json]
//	schedbench -diff fresh.json [-json BENCH_engine.json]
//	           [-tolerance 0.5]
//	schedbench -diffselftest [-json BENCH_engine.json] [-tolerance 0.5]
//
// With no table flags, -all is assumed. As in the paper, Table 4 stops
// at fpppp-1000: the n² approach's "excessive time and space
// requirements" are the point being demonstrated, and the instruction
// window caps them.
//
// -parallel benchmarks the batch scheduling engine (internal/engine):
// each benchmark's blocks are scheduled once by a single-worker engine
// and once by an N-worker pool, both warmed so the measurement sees
// the steady (allocation-free) state, and the per-benchmark engine
// statistics are written as JSON.
//
// With -adaptive (the default) the N-worker engine uses adaptive
// builder dispatch, a third table-only engine (Crossover -1) is raced
// against it to report the adaptive speedup, a pooled "mixed" corpus
// of every benchmark's blocks is appended, and each benchmark's
// per-size-bin breakdown is printed and recorded. -crossover passes
// through to engine.Config (0 = calibrate); -adaptive=false runs every
// engine table-only.
//
// With -packedsel (the default) the mixed corpus is additionally raced
// with the schedule cache disabled against a DisablePackedSel engine,
// so the report isolates what the packed-priority selection engine —
// precomputed priority words, heap pick loop, 8-byte arcs — buys over
// the winnowing rescan; the result lands in the JSON's "packedsel"
// section.
//
// -chaos runs the fault-injection gate (see chaos.go): a seeded
// fault.Plan is fired at the engine over the selected benchmark
// corpus and the run must recover every faulted block through the
// degradation ladder while staying byte-identical to a fault-free run.
//
// -stream benchmarks the streaming pipeline (see stream.go): the
// constant-memory synthetic producer feeds Engine.RunStream until
// -insts instructions have flowed through, and steady-state
// throughput, queue occupancy and the RSS high-water mark are merged
// into the engine JSON alongside a batch-mode yardstick.
//
// -cachefile runs the warm-start benchmark (see warmstart.go): one
// engine populates (or is served from) the persistent schedule-cache
// file, a fresh engine reopens it, and the report states the
// cold→warm latency and throughput deltas after proving the warm
// schedules byte-identical to a cache-disabled reference. -warmexpect
// turns the first pass into CI's cross-process persistence gate.
//
// -serve runs the service load benchmark (see serve.go): open-loop
// arrival at a fixed rate against a running schedd daemon, a
// round-robin multi-tenant request mix, p50/p99 latency and the shed
// rate merged into the engine JSON. -servecheck proves every 200
// response byte-identical to a local cache-disabled reference;
// -servewarm gates the daemon's cache hit rate over the window (CI's
// kill-proof warm-restart gate).
//
// -diff and -diffselftest are the perf-regression gate (see diff.go):
// a fresh engine JSON is compared against the committed baseline with
// a tolerance band, exiting 3 on regression; the self-test proves the
// gate fires on injected regressions.
//
// Exit codes are distinct by failure class: 0 success, 1 runtime or
// chaos-gate failure, 2 usage error (bad flag or flag value), 3
// performance regression flagged by -diff, 4 internal error (a panic
// caught at the top-level guard).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/engine"
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
		par      = flag.Bool("parallel", false, "benchmark the parallel batch engine")
		workers  = flag.Int("workers", 0, "engine worker-pool size for -parallel (0 = GOMAXPROCS)")
		builder  = flag.String("builder", "tableb", "engine construction pipeline for -parallel (tableb, tablef)")
		verify   = flag.Bool("verify", false, "cross-check every engine schedule on the scoreboard simulator")
		cache    = flag.Bool("cache", true, "enable the block-fingerprint schedule cache for -parallel")
		adaptive = flag.Bool("adaptive", true, "use adaptive builder dispatch for -parallel, racing a table-only (crossover -1) engine")
		packed   = flag.Bool("packedsel", true, "race the packed-priority selection engine against the winnowing rescan (cache off, mixed corpus) for -parallel")
		cross    = flag.Int("crossover", 0, "adaptive n² size threshold for -parallel (0 = calibrate, <0 = never)")
		jsonOut  = flag.String("json", "BENCH_engine.json", "file for -parallel engine statistics JSON")
		chaos    = flag.Bool("chaos", false, "run the fault-injection chaos gate against the engine")
		seed     = flag.Uint64("seed", 1, "fault-plan seed for -chaos")
		rate     = flag.Float64("faultrate", 0.08, "per-point injection rate for -chaos, in [0, 1]")
		stream   = flag.Bool("stream", false, "benchmark the streaming engine pipeline (RunStream) over the synthetic producer")
		cacheFn  = flag.String("cachefile", "", "persistent schedule-cache file: run the warm-start benchmark against it (populate, reopen in a fresh engine, compare)")
		warmExp  = flag.Float64("warmexpect", 0, "fail unless -cachefile's first pass is served from the file with at least this hit rate (0 disables; CI's cross-process gate)")
		insts    = flag.Float64("insts", 2e6, "instruction target for -stream (scientific notation welcome: -insts 100e6)")
		depth    = flag.Int("depth", 0, "bounded queue depth in blocks for -stream (0 = engine default)")
		serveURL = flag.String("serve", "", "schedd base URL: fire the open-loop service load benchmark at it (e.g. http://127.0.0.1:7077)")
		srvRate  = flag.Float64("serverate", 50, "offered arrival rate for -serve, requests/sec")
		srvDur   = flag.Duration("serveduration", 3*time.Second, "load window for -serve")
		srvTen   = flag.Int("servetenants", 3, "distinct X-Tenant identities for -serve")
		srvWarm  = flag.Float64("servewarm", 0, "fail unless the daemon's cache hit rate over the -serve window is at least this (0 disables; CI's warm-restart gate)")
		srvCheck = flag.Bool("servecheck", false, "verify every -serve 200 response byte-identical to a local cache-disabled reference engine")
		diffPath = flag.String("diff", "", "fresh engine JSON to gate against the -json baseline; exit 3 on perf regression")
		tol      = flag.Float64("tolerance", 0.5, "relative tolerance band for -diff and -diffselftest, in [0, 1)")
		selftest = flag.Bool("diffselftest", false, "verify the -diff gate catches injected regressions against the -json baseline")
	)
	flag.Parse()
	if !*t3 && !*t4 && !*t5 && !*fig1 && !*quality && !*optim && !*winners && !*scaling && !*ablate &&
		!*par && !*chaos && !*stream && *cacheFn == "" && *serveURL == "" && *diffPath == "" && !*selftest {
		*all = true
	}
	if *srvWarm < 0 || *srvWarm > 1 {
		return fail(exitUsage, "-servewarm %v outside [0, 1]", *srvWarm)
	}
	if *srvWarm > 0 && *serveURL == "" {
		return fail(exitUsage, "-servewarm needs -serve")
	}
	if *warmExp < 0 || *warmExp > 1 {
		return fail(exitUsage, "-warmexpect %v outside [0, 1]", *warmExp)
	}
	if *warmExp > 0 && *cacheFn == "" {
		return fail(exitUsage, "-warmexpect needs -cachefile")
	}
	m, ok := machine.ByName(*model)
	if !ok {
		return fail(exitUsage, "unknown machine model %q", *model)
	}
	if *rate < 0 || *rate > 1 {
		return fail(exitUsage, "-faultrate %v outside [0, 1]", *rate)
	}
	if *tol < 0 || *tol >= 1 {
		return fail(exitUsage, "-tolerance %v outside [0, 1)", *tol)
	}

	// The diff gate is a standalone mode: it reads JSON documents that
	// earlier runs produced and never touches the engine.
	if *diffPath != "" || *selftest {
		if *selftest {
			if err := runDiffSelfTest(*jsonOut, *tol); err != nil {
				return fail(exitRuntime, "diff self-test: %v", err)
			}
		}
		if *diffPath != "" {
			regressed, err := runDiff(diffConfig{freshPath: *diffPath, basePath: *jsonOut, tolerance: *tol})
			if err != nil {
				return fail(exitRuntime, "diff gate: %v", err)
			}
			if regressed {
				return fail(exitRegress, "performance regressed outside the %.0f%% tolerance band", *tol*100)
			}
		}
		return exitOK
	}

	sets := tables.Table3Sets()
	if *bench != "" {
		var filtered []tables.BenchmarkSet
		for _, s := range sets {
			if strings.HasPrefix(s.Name, *bench) {
				filtered = append(filtered, s)
			}
		}
		if len(filtered) == 0 {
			return fail(exitUsage, "no benchmark matches %q", *bench)
		}
		sets = filtered
	}

	if *all || *fig1 {
		fmt.Println(tables.Figure1(m))
	}
	if *all || *t3 {
		fmt.Println(tables.Table3(sets))
	}
	if *all || *t4 {
		// The paper did not run n² past a 1000-instruction window.
		var t4sets []tables.BenchmarkSet
		for _, s := range sets {
			if s.Name == "fpppp" || s.Name == "fpppp-2000" || s.Name == "fpppp-4000" {
				continue
			}
			t4sets = append(t4sets, s)
		}
		fmt.Println(tables.Table4(t4sets, m, *runs))
	}
	if *all || *t5 {
		fmt.Println(tables.Table5(sets, m, *runs))
	}
	if *quality {
		// The n²-based algorithms make full fpppp impractical; keep the
		// quality race to windowed sets, like Table 4.
		var qsets []tables.BenchmarkSet
		for _, s := range sets {
			if s.Name == "fpppp" || s.Name == "fpppp-2000" || s.Name == "fpppp-4000" {
				continue
			}
			qsets = append(qsets, s)
		}
		fmt.Println(tables.QualityTable(qsets, m))
	}
	if *optim {
		var osets []tables.BenchmarkSet
		for _, s := range sets {
			if !strings.HasPrefix(s.Name, "fpppp-") {
				osets = append(osets, s)
			}
		}
		fmt.Println(tables.OptimalityTable(osets, m, *maxBB))
	}
	if *scaling {
		fmt.Println(tables.ScalingTable(m, nil, *runs))
	}
	if *ablate {
		var asets []tables.BenchmarkSet
		for _, s := range sets {
			if !strings.HasPrefix(s.Name, "fpppp") {
				asets = append(asets, s)
			}
		}
		fmt.Println(tables.AblationTable(asets, m))
	}
	if *winners {
		var wsets []tables.BenchmarkSet
		for _, s := range sets {
			if s.Name == "fpppp" || s.Name == "fpppp-2000" || s.Name == "fpppp-4000" {
				continue
			}
			wsets = append(wsets, s)
		}
		fmt.Println(tables.WinnersBySize(wsets, m))
	}
	if *par {
		cfg := parallelConfig{
			workers: *workers, builder: *builder, verify: *verify,
			cache: *cache, adaptive: *adaptive, packedsel: *packed,
			crossover: *cross,
		}
		if err := runParallel(sets, m, *model, cfg, *jsonOut); err != nil {
			return fail(exitRuntime, "%v", err)
		}
	}
	if *stream {
		cfg := parallelConfig{
			workers: *workers, builder: *builder, verify: *verify,
			cache: *cache, adaptive: *adaptive, crossover: *cross,
		}
		if err := runStream(m, *model, cfg, *insts, *depth, *bench, *jsonOut); err != nil {
			return fail(exitRuntime, "stream: %v", err)
		}
	}
	if *cacheFn != "" {
		cfg := parallelConfig{
			workers: *workers, builder: *builder, verify: *verify,
			cache: *cache, adaptive: *adaptive, crossover: *cross,
		}
		if err := runWarmstart(sets, m, *model, cfg, *cacheFn, *warmExp, *jsonOut); err != nil {
			return fail(exitRuntime, "warm start: %v", err)
		}
	}
	if *serveURL != "" {
		cfg := serveConfig{
			url: *serveURL, rate: *srvRate, duration: *srvDur,
			tenants: *srvTen, warmExpect: *srvWarm, check: *srvCheck,
		}
		if err := runServe(sets, m, cfg, *jsonOut); err != nil {
			return fail(exitRuntime, "serve: %v", err)
		}
	}
	if *chaos {
		if err := runChaos(sets, m, chaosConfig{seed: *seed, rate: *rate, workers: *workers}); err != nil {
			return fail(exitRuntime, "chaos gate: %v", err)
		}
	}
	return exitOK
}

// fail prints the one-line diagnostic and returns the exit code.
func fail(code int, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "schedbench: "+format+"\n", args...)
	return code
}

// engineReport is one benchmark's serial-vs-parallel engine comparison.
// Serial and Parallel are the steady-state (second-pass) runs, so with
// the cache enabled they see a warm cache; the Delta fields record how
// much the warm pass improved on the cold first pass of the parallel
// engine (positive = warm is faster), and HitRate is the warm parallel
// pass's cache hit rate.
type engineReport struct {
	Name           string       `json:"name"`
	Serial         engine.Stats `json:"serial"`
	Parallel       engine.Stats `json:"parallel"`
	Speedup        float64      `json:"speedup"`
	HitRate        float64      `json:"hit_rate"`
	DeltaP50Micros float64      `json:"delta_p50_micros"`
	DeltaP99Micros float64      `json:"delta_p99_micros"`
	// Fixed is the warm run of the table-only engine (Crossover -1)
	// raced against the adaptive one (only under -adaptive), and
	// AdaptiveSpeedup is fixed wall over adaptive wall — above 1 means
	// routing small blocks to the n² pipeline beat table-building them.
	// Its cold/warm p50/p99 sit alongside Parallel's for comparison.
	Fixed           *engine.Stats `json:"fixed,omitempty"`
	AdaptiveSpeedup float64       `json:"adaptive_speedup,omitempty"`
}

// engineFile is the BENCH_engine.json document.
type engineFile struct {
	Model      string         `json:"model"`
	Builder    string         `json:"builder"`
	Workers    int            `json:"workers"`
	Cache      bool           `json:"cache"`
	Adaptive   bool           `json:"adaptive"`
	Crossover  int            `json:"crossover,omitempty"`
	Benchmarks []engineReport `json:"benchmarks"`
	// Stream is the -stream run's section, written by mergeStreamReport
	// and preserved across -parallel rewrites of the document.
	Stream *streamReport `json:"stream,omitempty"`
	// Warmstart is the -cachefile run's section, written by
	// mergeWarmstartReport and likewise preserved.
	Warmstart *warmstartReport `json:"warmstart,omitempty"`
	// PackedSel is the -packedsel race's section, rewritten by -parallel
	// runs with -packedsel on and preserved by everything else.
	PackedSel *packedselReport `json:"packedsel,omitempty"`
	// Serve is the -serve load run's section, written by
	// mergeServeReport and likewise preserved.
	Serve *serveReport `json:"serve,omitempty"`
}

// packedselReport records the packed-priority selection race: the same
// mixed corpus scheduled with the cache disabled (so every block pays
// for selection) by the default engine and by a DisablePackedSel
// engine, both warm. Speedup is winnow wall over packed wall.
type packedselReport struct {
	Packed  engine.Stats `json:"packed"`
	Winnow  engine.Stats `json:"winnow"`
	Speedup float64      `json:"speedup"`
}

// parallelConfig carries the -parallel flag group.
type parallelConfig struct {
	workers   int
	builder   string
	verify    bool
	cache     bool
	adaptive  bool
	packedsel bool
	crossover int
}

// crossoverFor is the Config.Crossover of an engine built from this
// flag group: a fixed engine is table-only (-1 never routes a block to
// the n² builder).
func (c parallelConfig) crossoverFor(fixed bool) int {
	if fixed {
		return -1
	}
	return c.crossover
}

// runParallel benchmarks the batch engine over every set: a warmed
// single-worker run against a warmed N-worker run (and, under
// -adaptive, a warmed fixed-pipeline N-worker run raced against the
// adaptive one), printed as a table and written as JSON. Speedup is
// hardware-dependent — it tracks the machine's physical core count,
// not the configured worker count.
func runParallel(sets []tables.BenchmarkSet, m *machine.Model, modelName string, cfg parallelConfig, jsonPath string) error {
	mk := func(w int, fixed bool) (*engine.Engine, error) {
		return engine.New(engine.Config{
			Workers: w, Model: m, Builder: cfg.builder, Verify: cfg.verify,
			Cache: cfg.cache, Crossover: cfg.crossoverFor(fixed),
		})
	}
	serial, err := mk(1, !cfg.adaptive)
	if err != nil {
		return err
	}
	parallel, err := mk(cfg.workers, !cfg.adaptive)
	if err != nil {
		return err
	}
	// The pooled mixed corpus: tiny spice-like blocks riding alongside
	// windowed fpppp giants. It is the adaptive dispatch's home turf and
	// the packed-selection race's measuring ground.
	var mixed []*block.Block
	for _, set := range sets {
		mixed = append(mixed, set.Blocks...)
	}
	var fixedPar *engine.Engine
	if cfg.adaptive {
		if fixedPar, err = mk(cfg.workers, true); err != nil {
			return err
		}
		sets = append(sets, tables.BenchmarkSet{Name: "mixed", Blocks: mixed})
	}

	fmt.Printf("Parallel batch engine: builder %s, %d workers, model %s, cache %v, adaptive %v (crossover %d)\n\n",
		cfg.builder, parallel.Workers(), modelName, cfg.cache, cfg.adaptive, parallel.Crossover())
	adaptCol := ""
	if cfg.adaptive {
		adaptCol = "   adapt"
	}
	fmt.Printf("%-12s %8s %8s %14s %14s %8s %9s %9s %7s%s\n",
		"benchmark", "#blocks", "#insts", "serial blk/s", "parallel blk/s",
		"speedup", "p50(us)", "p99(us)", "hit%", adaptCol)
	fmt.Println(strings.Repeat("-", 98+len(adaptCol)))

	doc := engineFile{
		Model: modelName, Builder: cfg.builder, Workers: parallel.Workers(),
		Cache: cfg.cache, Adaptive: cfg.adaptive,
		Crossover: parallel.Crossover(),
	}
	for _, set := range sets {
		// Two runs per engine: the first grows every worker arena (and,
		// with the cache on, fills it), the second measures the steady
		// state. The parallel engine's cold pass is kept so the report
		// can state the cold→warm p50/p99 deltas.
		var cold engine.Stats
		stats := make([]engine.Stats, 2)
		for i, e := range []*engine.Engine{serial, parallel} {
			res := new(engine.BatchResult)
			if _, err := e.RunInto(res, set.Blocks); err != nil {
				return fmt.Errorf("%s: %w", set.Name, err)
			}
			if i == 1 {
				cold = res.Stats
			}
			if _, err := e.RunInto(res, set.Blocks); err != nil {
				return fmt.Errorf("%s: %w", set.Name, err)
			}
			stats[i] = res.Stats
		}
		rep := engineReport{
			Name: set.Name, Serial: stats[0], Parallel: stats[1],
			HitRate:        stats[1].CacheHitRate,
			DeltaP50Micros: cold.P50Micros - stats[1].P50Micros,
			DeltaP99Micros: cold.P99Micros - stats[1].P99Micros,
		}
		if stats[1].WallSeconds > 0 {
			rep.Speedup = stats[0].WallSeconds / stats[1].WallSeconds
		}
		adaptCell := ""
		if cfg.adaptive {
			res := new(engine.BatchResult)
			if _, err := fixedPar.RunInto(res, set.Blocks); err != nil {
				return fmt.Errorf("%s (fixed): %w", set.Name, err)
			}
			if _, err := fixedPar.RunInto(res, set.Blocks); err != nil {
				return fmt.Errorf("%s (fixed): %w", set.Name, err)
			}
			fixed := res.Stats
			rep.Fixed = &fixed
			if stats[1].WallSeconds > 0 {
				rep.AdaptiveSpeedup = fixed.WallSeconds / stats[1].WallSeconds
			}
			adaptCell = fmt.Sprintf("  %5.2fx", rep.AdaptiveSpeedup)
		}
		doc.Benchmarks = append(doc.Benchmarks, rep)
		fmt.Printf("%-12s %8d %8d %14.0f %14.0f %7.2fx %9.1f %9.1f %6.1f%%%s\n",
			set.Name, rep.Parallel.Blocks, rep.Parallel.Insts,
			rep.Serial.BlocksPerSec, rep.Parallel.BlocksPerSec,
			rep.Speedup, rep.Parallel.P50Micros, rep.Parallel.P99Micros,
			rep.HitRate*100, adaptCell)
		if cfg.adaptive {
			printBins(set.Name, rep.Parallel.Bins)
		}
	}

	if cfg.packedsel {
		rep, err := runPackedSelRace(mixed, m, cfg)
		if err != nil {
			return err
		}
		doc.PackedSel = rep
		fmt.Printf("\npacked selection race (mixed, cache off): packed %.0f insts/s (%d/%d blocks packed), winnow %.0f insts/s, speedup %.2fx\n",
			rep.Packed.InstsPerSec, rep.Packed.PackedSelBlocks, rep.Packed.Blocks,
			rep.Winnow.InstsPerSec, rep.Speedup)
	}

	// -stream and -cachefile sections recorded by earlier runs ride
	// along (and the packedsel section too, when this run didn't race it).
	if old, err := readEngineFile(jsonPath); err == nil {
		doc.Stream = old.Stream
		doc.Warmstart = old.Warmstart
		doc.Serve = old.Serve
		if doc.PackedSel == nil {
			doc.PackedSel = old.PackedSel
		}
	}
	if err := writeEngineFile(jsonPath, &doc); err != nil {
		return err
	}
	fmt.Printf("\nengine statistics written to %s\n", jsonPath)
	return nil
}

// runPackedSelRace measures the packed-priority selection engine
// against the winnowing rescan on the mixed corpus. The schedule cache
// is off for both engines so every block pays for selection on every
// run — with it on, a warm pass would serve hits and measure memcpy,
// not the pick loop. Both engines are warmed with one full pass, then
// the timed passes alternate arms and each arm keeps its best (lowest
// wall) pass: interleaving cancels slow drift in machine load, and the
// per-arm minimum discards transient stalls the way benchstat's min
// column does, so the recorded speedup reflects the code, not the
// neighbors on the box.
func runPackedSelRace(mixed []*block.Block, m *machine.Model, cfg parallelConfig) (*packedselReport, error) {
	mk := func(disable bool) (*engine.Engine, error) {
		return engine.New(engine.Config{
			Workers: cfg.workers, Model: m, Builder: cfg.builder,
			DisablePackedSel: disable, Crossover: cfg.crossover,
		})
	}
	rep := new(packedselReport)
	arms := []struct {
		disable bool
		stats   *engine.Stats
	}{{false, &rep.Packed}, {true, &rep.Winnow}}
	engines := make([]*engine.Engine, len(arms))
	res := new(engine.BatchResult)
	for i, arm := range arms {
		e, err := mk(arm.disable)
		if err != nil {
			return nil, err
		}
		if _, err := e.RunInto(res, mixed); err != nil {
			return nil, fmt.Errorf("packedsel race: %w", err)
		}
		engines[i] = e
	}
	// Passes are cheap (the mixed corpus is small) and the best-of-N
	// estimate converges on the machine's true speed as N grows.
	const passes = 10
	for pass := 0; pass < passes; pass++ {
		for i, arm := range arms {
			if _, err := engines[i].RunInto(res, mixed); err != nil {
				return nil, fmt.Errorf("packedsel race: %w", err)
			}
			if pass == 0 || res.Stats.WallSeconds < arm.stats.WallSeconds {
				*arm.stats = res.Stats
			}
		}
	}
	if rep.Packed.WallSeconds > 0 {
		rep.Speedup = rep.Winnow.WallSeconds / rep.Packed.WallSeconds
	}
	return rep, nil
}

// printBins renders one warm adaptive run's per-size-bin breakdown:
// which pipeline (n²-direct, table, or cache hit) scheduled each bin's
// blocks and the bin's share of the summed per-block time.
func printBins(name string, bins []engine.BinStats) {
	for _, bin := range bins {
		if bin.Blocks == 0 {
			continue
		}
		fmt.Printf("  %-10s %6s %8d blocks %9d insts  n2 %-6d table %-6d cached %-8d wall %5.1f%%\n",
			name, bin.Label, bin.Blocks, bin.Insts,
			bin.N2Blocks, bin.TableBlocks, bin.CachedBlocks, bin.WallShare*100)
	}
}
