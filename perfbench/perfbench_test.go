package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/engine"
	"daginsched/internal/machine"
	"daginsched/internal/pipe"
	"daginsched/internal/resource"
)

// TestMain lets a test re-execute this binary as the benchmark itself:
// with PERFBENCH_ARGS set it runs the command line and exits.
func TestMain(m *testing.M) {
	if args := os.Getenv("PERFBENCH_ARGS"); args != "" {
		os.Exit(realMain(strings.Fields(args), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestOracleCatchesSwappedDependentPair feeds the oracle an engine
// schedule, then the same schedule with two dependent instructions
// swapped — reporting the cycle count the simulator gives the
// corrupted order, so only the legality and semantics checks stand
// between it and a pass.
func TestOracleCatchesSwappedDependentPair(t *testing.T) {
	m := machine.Pipe1()
	var b *block.Block
	for _, blk := range generatePass(seededProfiles(7), 0)[4] { // linpack
		if blk.Len() >= 12 {
			b = blk
			break
		}
	}
	if b == nil {
		t.Fatal("no block of 12 or more instructions in the linpack profile")
	}
	e, err := engine.New(engine.Config{Workers: 1, Model: m, KeepOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run([]*block.Block{b})
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(m, 1)
	if n := o.check([]job{{b: b, order: res.Orders[0], cycles: res.Cycles[0]}}); n != 0 {
		t.Fatalf("the engine's own schedule failed the oracle: %v", o.err())
	}

	rt := resource.NewTable(resource.MemExprModel)
	rt.PrepareBlock(b.Insts)
	d := dag.TableForward{}.Build(b, m, rt)
	order := slices.Clone(res.Orders[0])
	pos := make([]int, b.Len())
	for p, v := range order {
		pos[v] = p
	}
	swapped := false
	for i := range d.Nodes {
		if arcs := d.Nodes[i].Succs; len(arcs) > 0 {
			a := arcs[0]
			order[pos[a.From]], order[pos[a.To]] = order[pos[a.To]], order[pos[a.From]]
			swapped = true
			break
		}
	}
	if !swapped {
		t.Fatal("block has no dependence to corrupt")
	}
	simCycles := pipe.Simulate(b.Insts, order, m, rt).Cycles
	if n := o.check([]job{{b: b, order: order, cycles: simCycles}}); n != 1 {
		t.Fatal("the oracle passed an order with two dependent instructions swapped")
	}
	if err := o.err(); err == nil || !strings.Contains(err.Error(), "legality") {
		t.Fatalf("want a legality failure, got %v", err)
	}

	// A wrong cycle count and an incomplete order are caught too.
	if n := o.check([]job{{b: b, order: res.Orders[0], cycles: res.Cycles[0] + 1}}); n != 1 {
		t.Error("the oracle passed a misreported cycle count")
	}
	if n := o.check([]job{{b: b, order: res.Orders[0][1:], cycles: res.Cycles[0]}}); n != 1 {
		t.Error("the oracle passed an order missing an instruction")
	}
}

// TestProvenVerdictNeedsIdenticalSchedule checks that a repeated block
// reuses a verdict only for a byte-identical schedule.
func TestProvenVerdictNeedsIdenticalSchedule(t *testing.T) {
	m := machine.Pipe1()
	b := generatePass(seededProfiles(3), 0)[0][0]
	e, err := engine.New(engine.Config{Workers: 1, Model: m, KeepOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run([]*block.Block{b})
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(m, 1)
	id := blockID{9, 0, 0}
	good := job{id: id, b: b, order: res.Orders[0], cycles: res.Cycles[0]}
	o.check([]job{good, good})
	if o.checked.Load() < 1 || o.failed.Load() != 0 {
		t.Fatalf("checked %d failed %d", o.checked.Load(), o.failed.Load())
	}
	reversed := slices.Clone(res.Orders[0])
	slices.Reverse(reversed)
	if !slices.Equal(reversed, res.Orders[0]) {
		if n := o.check([]job{{id: id, b: b, order: reversed, cycles: res.Cycles[0]}}); n != 1 {
			t.Fatal("a different schedule for a proven block inherited its verdict")
		}
	}
}

// TestTruncatedStreamRecordsReachOracle checks that the records a
// /v1/stream answer delivered before it broke off are checked: a good
// prefix fails only the request, a bad record fails the oracle too.
func TestTruncatedStreamRecordsReachOracle(t *testing.T) {
	m := machine.Super2()
	blocks := generatePass(seededProfiles(4), 0)[4][:3] // linpack
	e, err := engine.New(engine.Config{Workers: 1, Model: m, KeepOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	record := func(i int, order []int32) string {
		return mustJSON(blockAnswer{Seq: int64(i), Cycles: res.Cycles[i], Order: order}) + "\n"
	}
	trailer := `{"done":false,"blocks":2,"error":"asm: line 9: unknown mnemonic \"ad\""}` + "\n"
	for _, tc := range []struct {
		name       string
		second     []int32
		oracleFail int64
	}{
		{"good prefix", res.Orders[1], 0},
		{"bad record", res.Orders[1][1:], 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := &bench{log: io.Discard, ref: newRefTally(), orc: newOracle(m, 1)}
			w := &serveLoad{b: b, units: []serveUnit{{blocks: blocks}}, bodies: map[answerKey][]byte{}}
			k := w.keep(0, true, []byte(record(0, res.Orders[0])+record(1, tc.second)+trailer))
			w.check([]*reqResult{{id: 1, stream: true, status: 200, answer: k}}, false)
			if b.attempted != 1 || b.failed != 1 {
				t.Errorf("attempted %d failed %d, want 1 and 1", b.attempted, b.failed)
			}
			if got := b.orc.checked.Load() + b.orc.reused.Load(); got != 2 {
				t.Errorf("the oracle saw %d schedules, want the 2 delivered", got)
			}
			if got := b.orc.failed.Load(); got != tc.oracleFail {
				t.Errorf("oracle failures %d, want %d", got, tc.oracleFail)
			}
		})
	}
}

// run drives one workload end to end through runOne in root and
// returns its output lines.
func run(t *testing.T, ctx context.Context, root, workload string, seed uint64, seconds float64, traced bool) ([]string, result, error) {
	t.Helper()
	var out bytes.Buffer
	res, err := runOne(ctx, options{workload: workload, seed: seed, seconds: seconds, trace: traced, root: root}, &out)
	return strings.Split(strings.TrimSpace(out.String()), "\n"), res, err
}

// envOf returns the env line a run printed.
func envOf(t *testing.T, lines []string) envInfo {
	t.Helper()
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "env "); ok {
			var env envInfo
			if err := json.Unmarshal([]byte(rest), &env); err != nil {
				t.Fatal(err)
			}
			return env
		}
	}
	t.Fatal("no env line in the output")
	return envInfo{}
}

// TestDeterminism runs every workload twice on one seed and once on
// another: the same seed must give identical sched_cycles and schedule
// digests, another seed a different corpus that still passes the
// oracle. No operation may fail on any run.
func TestDeterminism(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			root := t.TempDir()
			var digests []string
			var cycles []float64
			for _, seed := range []uint64{5, 5, 6} {
				lines, res, err := run(t, context.Background(), root, w, seed, 0.2, false)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("seed %d: a schedule failed the oracle:\n%s", seed, strings.Join(lines, "\n"))
				}
				if res.Failed != 0 {
					t.Fatalf("seed %d: %d of %d operations failed:\n%s", seed, res.Failed, res.Attempted, strings.Join(lines, "\n"))
				}
				digests = append(digests, envOf(t, lines).Digest)
				cycles = append(cycles, res.Metrics["sched_cycles"].Value)
			}
			if digests[0] != digests[1] || cycles[0] != cycles[1] {
				t.Errorf("seed 5 twice: digests %s/%s, sched_cycles %v/%v", digests[0], digests[1], cycles[0], cycles[1])
			}
			if digests[0] == digests[2] {
				t.Errorf("seeds 5 and 6 gave the same schedule digest %s", digests[0])
			}
		})
	}
}

// TestResultLineMatchesTables checks the metric names and units of
// both kinds of run of every workload against the tables.
func TestResultLineMatchesTables(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) { checkResultLines(t, w) })
	}
}

func checkResultLines(t *testing.T, workload string) {
	root := t.TempDir()
	for _, traced := range []bool{false, true} {
		_, res, err := run(t, context.Background(), root, workload, 2, 0.2, traced)
		if err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s = %+v, want unit %s", traced, d.Name, v, d.Unit)
			}
		}
		if traced {
			spans, _ := filepath.Glob(filepath.Join(root, ".bench_build", "traces", workload+"-seed2-*.json"))
			if len(spans) != 1 {
				t.Fatalf("span files: %v", spans)
			}
			var tf traceFile
			data, err := os.ReadFile(spans[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if tf.RunID == "" || len(tf.Spans) == 0 {
				t.Fatalf("span file has run id %q and %d spans", tf.RunID, len(tf.Spans))
			}
		}
	}
}

// TestManifestMatchesTables checks BENCHMARK.json against the metric
// tables and workload list the program reports from.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&man); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(man.Command, []string{"bash", "perfbench/run.sh"}) || !slices.Equal(man.Paths, []string{"perfbench"}) {
		t.Errorf("command %v, paths %v", man.Command, man.Paths)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", man.RunSeconds)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
		if first, _, _ := strings.Cut(workloadDoc[w.Name], ". "); w.Why != first {
			t.Errorf("workload %s: why %q, want %q", w.Name, w.Why, first)
		}
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, want %v", names, workloadNames())
	}
	if !slices.Equal(man.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the table:\n%+v\n%+v", man.EndToEnd, endToEnd)
	}
	if !slices.Equal(man.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the table:\n%+v\n%+v", man.PerLayer, perLayer)
	}
}

// benchGoroutines lists live goroutines running benchmark code, other
// than the test's own.
func benchGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "daginsched/perfbench.") && !strings.Contains(g, "testing.tRunner") && !strings.Contains(g, "testing.(*M)") {
			out = append(out, g)
		}
	}
	return out
}

// settle waits for goroutines that are exiting to finish; stopping
// waits for every goroutine the benchmark starts, but the HTTP
// transport's connection goroutines end asynchronously.
func settle(baseline int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > baseline; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunLeavesNothingBehind runs every workload, one of them cancelled
// midway, and checks that afterwards no listener accepts, no
// benchmark goroutine is alive, no goroutine count has grown and the
// temp directory is gone.
func TestRunLeavesNothingBehind(t *testing.T) {
	root := t.TempDir()
	baseline := runtime.NumGoroutine()
	for _, w := range workloadNames() {
		if _, _, err := run(t, context.Background(), root, w, 4, 0.2, false); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, _, err := run(t, ctx, root, "serve", 4, 5, false); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled run returned %v", err)
	}
	left, err := os.ReadDir(filepath.Join(root, ".bench_build", "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("temp entries left behind: %v", left)
	}
	if n := settle(baseline); n > baseline {
		t.Errorf("%d goroutines alive, %d before", n, baseline)
	}
	if gs := benchGoroutines(); len(gs) > 0 {
		t.Errorf("benchmark goroutines still alive:\n%s", strings.Join(gs, "\n\n"))
	}

	// The serve workload's listener is closed once it stops.
	b := &bench{opts: options{workload: "serve", seed: 4}, nproc: 2, tmp: t.TempDir(), log: &bytes.Buffer{}, ref: newRefTally(), layers: map[string]float64{}}
	w := &serveLoad{b: b}
	if err := w.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	addr := w.addr
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Errorf("listener %s still accepts after close", addr)
	}
}

// TestSignalStopsCleanly runs the benchmark as a separate process,
// sends it SIGTERM mid-run, and checks it exits non-zero without a
// result line and leaves no temp directory behind.
func TestSignalStopsCleanly(t *testing.T) {
	for _, sig := range []syscall.Signal{syscall.SIGTERM, syscall.SIGINT} {
		root := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Dir = root
		cmd.Env = append(os.Environ(), "PERFBENCH_ARGS=--workload serve --seed 3 --seconds 30 --trace 0")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		lines := bufio.NewScanner(stdout)
		if !lines.Scan() {
			t.Fatal("benchmark printed nothing")
		}
		time.Sleep(500 * time.Millisecond)
		if err := cmd.Process.Signal(sig); err != nil {
			t.Fatal(err)
		}
		var last string
		for lines.Scan() {
			last = lines.Text()
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err = <-done:
		case <-time.After(20 * time.Second):
			cmd.Process.Kill()
			<-done
			t.Fatalf("%v: benchmark still running 20s after the signal", sig)
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: exit %v, want status 1", sig, err)
		}
		if strings.HasPrefix(last, `{"correct"`) {
			t.Errorf("%v: printed a result line after the signal: %s", sig, last)
		}
		left, err := os.ReadDir(filepath.Join(root, ".bench_build", "tmp"))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Errorf("%v: temp entries left behind: %v", sig, left)
		}
	}
}
