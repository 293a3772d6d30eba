// Command perfbench is the repository's benchmark: one process that
// drives the scheduling stack through its public entry points, checks
// every schedule it gets back with oracles independent of the engine,
// and prints each metric by name with its unit.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see workloadDoc):
//
//   - cold-batch: the nine Table 3 profiles, fresh content every pass,
//     one Engine.Run per profile, cache off.
//   - warm-stream: the corpus as assembly text through asm's scanner
//     into Engine.RunStream, on an engine reopened over a cache file
//     that set-up populated, restarted every 2 passes; 1 block in 32
//     is new each pass.
//   - serve: internal/server in-process on a loopback listener with the
//     daemon's defaults; three tenants post 32-block units, open loop
//     at a fixed rate, then closed loop with eight clients.
//   - all: the three above in sequence, in one process.
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it measures half its time untraced and half with
// spans around every call into the program (the difference is
// trace.overhead_ratio), then replays the workload's reference blocks
// through the layers' public functions next to a 1-worker engine run
// over the same blocks, and prints the per-layer metrics. Its spans are
// written to .bench_build/traces/ when it ends.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: correct is false when any
// schedule the program delivered fails the oracle; failed counts the
// operations that failed for any reason (an oracle mismatch, an error,
// a refused or non-200 request). Exit status: 0 after a
// result line (correct may still be false), 1 on a failed or
// interrupted run, 2 on bad arguments. The per-run temp directory,
// listeners and goroutines are released on every exit path, SIGINT and
// SIGTERM included.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/machine"
)

// runLimit bounds one workload run, set-up and checks included, so a
// wedged program fails the run instead of hanging it.
const runLimit = 170 * time.Second

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root; every file the run writes is under root/.bench_build
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "cold-batch, warm-stream, serve or all")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	switch {
	case *workload == "all":
		names = workloadNames()
	case workloadDoc[*workload] == "":
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want one of %v or all)\n", *workload, workloadNames())
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		opts := options{workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1, root: root}
		res, err := runOne(ctx, opts, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		if len(names) == 1 {
			return printJSON(stdout, stderr, res)
		}
		if printJSON(stdout, stderr, res) != 0 {
			return 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[name+"/"+k] = v
		}
	}
	return printJSON(stdout, stderr, all)
}

func printJSON(stdout, stderr io.Writer, v any) int {
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runOne runs one workload under runLimit with its own temp directory,
// which is removed on every path out.
func runOne(ctx context.Context, opts options, stdout io.Writer) (res result, err error) {
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	tmpParent := filepath.Join(opts.root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpParent, 0o755); err != nil {
		return res, fmt.Errorf("creating temp parent: %w", err)
	}
	tmp, err := os.MkdirTemp(tmpParent, opts.workload+"-")
	if err != nil {
		return res, fmt.Errorf("creating temp dir: %w", err)
	}
	defer func() {
		if rmErr := os.RemoveAll(tmp); rmErr != nil && err == nil {
			err = fmt.Errorf("removing temp dir: %w", rmErr)
		}
	}()
	res, err = runWorkload(ctx, opts, tmp, stdout)
	if err != nil && ctx.Err() != nil {
		err = fmt.Errorf("%w (%v)", err, context.Cause(ctx))
	}
	return res, err
}

// bench is the state one workload run shares with the harness.
type bench struct {
	opts  options
	nproc int
	tmp   string
	log   io.Writer
	orc   *oracle
	ref   *refTally
	rss   rssMeter

	setupS            []float64 // set-up samples, seconds
	attempted, failed int64
	layers            map[string]float64 // per-layer counts the workload reports from the program's own stats
}

// tally is what one measured phase produced. Every figure is taken per
// window and reported as the median over windows, so a stall of the
// machine during one window does not move it.
type tally struct {
	busy  time.Duration // summed wall of the timed calls
	rates []float64     // throughput of each window, inst/s
	lat   []latWindow
	info  []infoLine // workload-specific figures the report prints
}

// latWindow is one window's latency samples.
type latWindow struct {
	units  []float64  // per-unit latency, ms
	blocks []weighted // per-block latency, us
}

// unitQ is the median over windows of each window's q-quantile unit
// latency.
func (t *tally) unitQ(q float64) float64 {
	var xs []float64
	for _, w := range t.lat {
		if len(w.units) > 0 {
			xs = append(xs, quantile(w.units, q))
		}
	}
	return median(xs)
}

// blockQ is unitQ for block latencies.
func (t *tally) blockQ(q float64) float64 {
	var xs []float64
	for _, w := range t.lat {
		if len(w.blocks) > 0 {
			xs = append(xs, wquantile(w.blocks, q))
		}
	}
	return median(xs)
}

// samples counts the unit and block latency samples.
func (t *tally) samples() (units, blocks int) {
	for _, w := range t.lat {
		units += len(w.units)
		blocks += len(w.blocks)
	}
	return units, blocks
}

// infoLine is a figure printed in the report but not in the result
// line.
type infoLine struct {
	name, unit string
	value      float64
}

// workload is one traffic mix.
type workload interface {
	// setup prepares the inputs and the program's state, appending
	// set-up time samples to bench.setupS.
	setup(ctx context.Context) error
	// measure runs the workload for about d of timed calls (at least
	// one window), checking every output after each window.
	measure(ctx context.Context, d time.Duration, tr *tracer, parent int64) (*tally, error)
	// reference returns what the layer replay covers: the model and
	// engine settings, the workload's reference blocks as the program
	// saw them (grouped in units) and their text.
	reference() (ref replayInput)
	// close releases everything setup started. It is idempotent.
	close() error
}

// replayInput is a workload's reference set for the layer replay.
type replayInput struct {
	model        *machine.Model
	crossover    int
	blockTimeout time.Duration
	units        [][]*block.Block
	text         []byte
}

// runWorkload sets up one workload, measures it and checks its outputs.
func runWorkload(ctx context.Context, opts options, tmp string, stdout io.Writer) (result, error) {
	env := newEnv(opts.root, opts.workload, opts.seed, opts.seconds, opts.trace)
	b := &bench{opts: opts, nproc: env.NProc, tmp: tmp, log: stdout, ref: newRefTally(), layers: map[string]float64{}}
	for _, n := range statLayers {
		b.layers[n] = 0
	}
	w := newWorkload(opts.workload, b)
	defer w.close()
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%v\n", opts.workload, opts.seed, opts.seconds, opts.trace)
	if err := w.setup(ctx); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	ri := w.reference()
	env.Crossover = ri.crossover
	d := time.Duration(opts.seconds * float64(time.Second))

	vals := map[string]float64{}
	var tr *tracer
	var t *tally
	if !opts.trace {
		var err error
		if t, err = w.measure(ctx, d, nil, 0); err != nil {
			return result{}, err
		}
	} else {
		untraced, err := w.measure(ctx, d/2, nil, 0)
		if err != nil {
			return result{}, err
		}
		tr = newTracer(env.RunID)
		rootID := tr.id()
		start := time.Now()
		pid := tr.id()
		t0 := time.Now()
		if t, err = w.measure(ctx, d-d/2, tr, pid); err != nil {
			return result{}, err
		}
		tr.record(pid, rootID, "measure.traced", t0, time.Now())
		lid := tr.id()
		t0 = time.Now()
		rep, err := measureLayers(ri.model, ri.crossover, ri.blockTimeout, ri.units, ri.text, tr, lid)
		if err != nil {
			return result{}, err
		}
		tr.record(lid, rootID, "layers", t0, time.Now())
		tr.record(rootID, 0, "run", start, time.Now())
		rep.metrics(vals)
		for k, v := range b.layers {
			vals[k] = v
		}
		vals["trace.overhead_ratio"] = ratio(median(t.rates), median(untraced.rates))
		printLayers(stdout, rep, tr)
		if s, ok := w.(interface {
			printSplit(io.Writer, *layerReport)
		}); ok {
			s.printSplit(stdout, rep)
		}
	}
	if err := w.close(); err != nil {
		return result{}, fmt.Errorf("closing: %w", err)
	}

	vals["setup_s"] = median(append([]float64(nil), b.setupS...))
	vals["insts_per_s"] = median(t.rates)
	vals["unit_p50_ms"] = t.unitQ(0.50)
	// The latency tails and per-block latencies are per-layer figures of
	// the engine (on serve: the engine as reached through the server),
	// not gated end-to-end metrics: across seeds on a 2-vCPU shared
	// machine they spread 0.2-0.5 of their median, following the
	// hypervisor's scheduling of the goroutines that hand work over as
	// much as the program.
	vals["engine.unit_p90_ms"] = t.unitQ(0.90)
	vals["engine.block_p50_us"] = t.blockQ(0.50)
	vals["engine.block_p90_us"] = t.blockQ(0.90)
	t.info = append(t.info,
		infoLine{"unit_p90_ms", "ms", vals["engine.unit_p90_ms"]},
		infoLine{"unit_p99_ms", "ms", t.unitQ(0.99)},
		infoLine{"block_p50_us", "us", vals["engine.block_p50_us"]},
		infoLine{"block_p90_us", "us", vals["engine.block_p90_us"]},
		infoLine{"block_p99_us", "us", t.blockQ(0.99)})
	vals["sched_cycles"] = float64(b.ref.sum())
	vals["peak_rss_mb"] = b.rss.peakMB()
	env.Digest = fmt.Sprintf("%016x", b.ref.fingerprint())

	res := result{Correct: b.orc.failed.Load() == 0, Attempted: b.attempted, Failed: b.failed}
	if err := b.orc.err(); err != nil {
		fmt.Fprintf(stdout, "ORACLE FAILURE: %v\n", err)
	}
	printReport(stdout, env, b, t, vals)
	if tr != nil {
		path, err := tr.write(filepath.Join(opts.root, ".bench_build", "traces"), env, vals)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	m, err := pick(defs, vals)
	if err != nil {
		return result{}, err
	}
	res.Metrics = m
	if res.Attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	return res, nil
}
