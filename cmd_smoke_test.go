// Smoke tests for the command-line tools: each binary is exercised
// through `go run` with its common flag combinations. Slow (compiles
// each tool), so skipped under -short.
package daginsched_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"daginsched/internal/asm"
	"daginsched/internal/block"
	"daginsched/internal/engine"
	"daginsched/internal/machine"
	"daginsched/internal/server"
	"daginsched/internal/tables"
)

// runTool runs `go run ./cmd/<tool> args...` with optional stdin.
func runTool(t *testing.T, stdin string, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./cmd/" + tool}, args...)...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

// buildTool compiles one command to a temp binary so a test can
// observe its exact exit code (go run does not reliably propagate it).
func buildTool(t *testing.T, tool string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), tool)
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+tool).CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", tool, err, out)
	}
	return bin
}

// runToolErr runs a prebuilt tool expecting failure, returning its
// combined output and exit code.
func runToolErr(t *testing.T, stdin, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v: expected a failure, got success:\n%s", bin, args, out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%s %v: %v (not an exit error)\n%s", bin, args, err, out)
	}
	return string(out), ee.ExitCode()
}

// requireDiagnostic asserts a failure produced a one-line prefixed
// diagnostic, not a panic stack trace.
func requireDiagnostic(t *testing.T, tool, out string) {
	t.Helper()
	if !strings.HasPrefix(out, tool+":") {
		t.Errorf("%s diagnostic missing prefix:\n%s", tool, out)
	}
	if strings.Contains(out, "goroutine ") || strings.Contains(out, "panic:") {
		t.Errorf("%s crashed with a stack trace:\n%s", tool, out)
	}
	if n := strings.Count(strings.TrimRight(out, "\n"), "\n"); n != 0 {
		t.Errorf("%s diagnostic is %d lines, want one:\n%s", tool, n+1, out)
	}
}

const smokeAsm = `
top:
	ld [%fp-4], %o0
	add %o0, 1, %o1
	mov 9, %l7
	cmp %o1, 0
	bne top
	nop
`

func TestSmokeSched(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short mode")
	}
	out := runTool(t, smokeAsm, "sched", "-report")
	if !strings.Contains(out, "total:") {
		t.Errorf("sched -report:\n%s", out)
	}
	out = runTool(t, smokeAsm, "sched", "-algo", "warren", "-model", "super2")
	if !strings.Contains(out, "top:") {
		t.Errorf("sched asm output:\n%s", out)
	}
	out = runTool(t, smokeAsm, "sched", "-timeline")
	if !strings.Contains(out, "cycle") {
		t.Errorf("sched -timeline:\n%s", out)
	}
	out = runTool(t, smokeAsm, "sched", "-explain")
	if !strings.Contains(out, "cycles") {
		t.Errorf("sched -explain:\n%s", out)
	}
	out = runTool(t, smokeAsm, "sched", "-fillslots", "-report")
	if !strings.Contains(out, "delay slots filled: 1") {
		t.Errorf("sched -fillslots:\n%s", out)
	}
	out = runTool(t, smokeAsm, "sched", "-rename", "-globalcarry", "-mem", "class")
	if !strings.Contains(out, "top:") {
		t.Errorf("sched flag combo:\n%s", out)
	}
}

func TestSmokeHeursurvey(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short mode")
	}
	out := runTool(t, "", "heursurvey")
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "Table 2") {
		t.Errorf("heursurvey:\n%s", out[:200])
	}
}

func TestSmokeDagstat(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short mode")
	}
	out := runTool(t, "", "dagstat", "-bench", "grep", "-builders", "tablef,landskov")
	if !strings.Contains(out, "tablef") || !strings.Contains(out, "landskov") {
		t.Errorf("dagstat:\n%s", out)
	}
	out = runTool(t, "", "dagstat", "-bench", "grep", "-dot")
	if !strings.Contains(out, "digraph") {
		t.Errorf("dagstat -dot:\n%s", out)
	}
}

func TestSmokeSchedlint(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short mode")
	}
	out := runTool(t, "", "schedlint", "-strict", "-json", "./...")
	var doc struct {
		Findings []struct {
			File string `json:"file"`
			Line int    `json:"line"`
			Pass string `json:"pass"`
			Msg  string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("schedlint -json malformed: %v\n%s", err, out)
	}
	if len(doc.Findings) != 0 {
		t.Errorf("schedlint found violations in the repo: %+v", doc.Findings)
	}

	// An unknown pass name must exit 2 with a diagnostic that teaches
	// the valid set, not silently run nothing.
	schedlint := buildTool(t, "schedlint")
	out2, code := runToolErr(t, "", schedlint, "-passes", "noalloc,bogus", "./internal/buf")
	if code != 2 {
		t.Errorf("unknown pass exit code %d, want 2\n%s", code, out2)
	}
	requireDiagnostic(t, "schedlint", out2)
	for _, want := range []string{`unknown pass "bogus"`, "valid passes:", "lockorder", "panicsafe"} {
		if !strings.Contains(out2, want) {
			t.Errorf("unknown-pass diagnostic missing %q:\n%s", want, out2)
		}
	}
}

// TestSmokeMalformedInput drives both end-user tools with malformed
// flags and input and requires the distinct exit codes and one-line
// diagnostics the hardened CLIs promise — never a panic.
func TestSmokeMalformedInput(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short mode")
	}
	sched := buildTool(t, "sched")
	schedbench := buildTool(t, "schedbench")
	cases := []struct {
		name  string
		bin   string
		tool  string
		stdin string
		args  []string
		code  int
	}{
		{"sched malformed asm", sched, "sched", "bogus %o0 ???\n", nil, 3},
		{"sched truncated operand", sched, "sched", "add %o0,\n", nil, 3},
		{"sched missing file", sched, "sched", "", []string{"/nonexistent/input.s"}, 3},
		{"sched unknown model", sched, "sched", "nop\n", []string{"-model", "marsrover"}, 2},
		{"sched unknown algo", sched, "sched", "nop\n", []string{"-algo", "magic"}, 2},
		{"sched unknown builder", sched, "sched", "nop\n", []string{"-builder", "lattice"}, 2},
		{"sched unknown mem model", sched, "sched", "nop\n", []string{"-mem", "psychic"}, 2},
		{"schedbench unknown model", schedbench, "schedbench", "", []string{"-model", "marsrover"}, 2},
		{"schedbench unknown bench", schedbench, "schedbench", "", []string{"-table3", "-bench", "nosuch"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := runToolErr(t, tc.stdin, tc.bin, tc.args...)
			if code != tc.code {
				t.Errorf("exit code %d, want %d\n%s", code, tc.code, out)
			}
			requireDiagnostic(t, tc.tool, out)
		})
	}
}

func TestSmokeSchedbench(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short mode")
	}
	out := runTool(t, "", "schedbench", "-table3", "-bench", "grep")
	if !strings.Contains(out, "grep") || !strings.Contains(out, "730") {
		t.Errorf("schedbench -table3:\n%s", out)
	}
	out = runTool(t, "", "schedbench", "-fig1")
	if !strings.Contains(out, "Figure 1") {
		t.Errorf("schedbench -fig1:\n%s", out)
	}
	out = runTool(t, "", "schedbench", "-table5", "-runs", "1", "-bench", "grep")
	if !strings.Contains(out, "fwd(s)") {
		t.Errorf("schedbench -table5:\n%s", out)
	}
}

// TestSmokeSchedbenchDiff exercises the perf gate end to end against
// the committed baseline: the baseline diffed against itself passes,
// -diffselftest proves the gate catches every injected regression, a
// fresh line whose throughput collapsed exits with the distinct
// regression code, and a file of something other than result lines is
// a runtime error.
func TestSmokeSchedbenchDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short mode")
	}
	const baseline = "BENCH_perfbench.ndjson"
	out := runTool(t, "", "schedbench", "-diff", baseline)
	if !strings.Contains(out, "no regression") {
		t.Errorf("self-diff should pass:\n%s", out)
	}
	out = runTool(t, "", "schedbench", "-diffselftest")
	if !strings.Contains(out, "self-test ok") || !strings.Contains(out, "caught: correct: false") {
		t.Errorf("schedbench -diffselftest:\n%s", out)
	}

	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(string(data), "\n")
	var line struct {
		Correct   bool                       `json:"correct"`
		Attempted int64                      `json:"attempted"`
		Failed    int64                      `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(first), &line); err != nil {
		t.Fatalf("baseline line malformed: %v\n%s", err, first)
	}
	line.Metrics["cold-batch/insts_per_s"] = json.RawMessage(`{"value":1,"unit":"inst/s"}`)
	doctored, err := json.Marshal(&line)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	badPath := filepath.Join(dir, "doctored.ndjson")
	if err := os.WriteFile(badPath, append(doctored, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	schedbench := buildTool(t, "schedbench")
	out, code := runToolErr(t, "", schedbench, "-diff", badPath)
	if code != 3 || !strings.Contains(out, "cold-batch/insts_per_s") {
		t.Errorf("doctored diff exit code %d, want 3 naming the metric\n%s", code, out)
	}

	junkPath := filepath.Join(dir, "junk.ndjson")
	if err := os.WriteFile(junkPath, []byte("perfbench: not a result line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runToolErr(t, "", schedbench, "-diff", junkPath)
	if code != 1 {
		t.Errorf("malformed file exit code %d, want 1\n%s", code, out)
	}
	requireDiagnostic(t, "schedbench", out)
}

// TestSmokeSchedd boots the scheduling daemon, drives its endpoints
// over real HTTP, and pins the exit-code discipline: 2 for flag
// misuse, 3 for configuration the engine rejects, 0 for SIGTERM drain.
func TestSmokeSchedd(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short mode")
	}
	schedd := buildTool(t, "schedd")

	out, code := runToolErr(t, "", schedd, "-model", "marsrover")
	if code != 2 {
		t.Errorf("unknown model exit code %d, want 2\n%s", code, out)
	}
	requireDiagnostic(t, "schedd", out)
	out, code = runToolErr(t, "", schedd, "stray-argument")
	if code != 2 {
		t.Errorf("stray argument exit code %d, want 2\n%s", code, out)
	}
	requireDiagnostic(t, "schedd", out)
	// flag's own parse failure also exits 2 (it prints usage itself).
	if out, code = runToolErr(t, "", schedd, "-nosuchflag"); code != 2 {
		t.Errorf("unknown flag exit code %d, want 2\n%s", code, out)
	}
	// A cache file in a directory that does not exist is the operator's
	// configuration to fix: distinct code 3.
	out, code = runToolErr(t, "", schedd,
		"-cachefile", filepath.Join(t.TempDir(), "no", "such", "dir", "sched.cache"))
	if code != 3 {
		t.Errorf("unopenable cachefile exit code %d, want 3\n%s", code, out)
	}
	requireDiagnostic(t, "schedd", out)

	cmd, base := startSchedd(t, schedd)

	resp, err := http.Post(base+"/v1/schedule", "text/plain", strings.NewReader(smokeAsm))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/schedule: HTTP %d\n%s", resp.StatusCode, body)
	}
	var sched struct {
		Blocks  int `json:"blocks"`
		Results []struct {
			Name  string  `json:"name"`
			Rung  string  `json:"rung"`
			Order []int32 `json:"order"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &sched); err != nil {
		t.Fatalf("schedule response malformed: %v\n%s", err, body)
	}
	if sched.Blocks == 0 || len(sched.Results) == 0 || len(sched.Results[0].Order) == 0 ||
		sched.Results[0].Name != "top" {
		t.Errorf("schedule response contents wrong: %+v", sched)
	}

	resp, err = http.Post(base+"/v1/schedule", "text/plain", strings.NewReader("bogus ??? line\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed asm: HTTP %d, want 400", resp.StatusCode)
	}

	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200, "/stats": 200} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: HTTP %d, want %d", path, resp.StatusCode, want)
		}
	}

	stopSchedd(t, cmd)
}

// startSchedd runs the daemon on an ephemeral loopback port with the
// given extra flags and returns it with its base URL, read from the
// listen line. The test's cleanup kills it if it is still running.
func startSchedd(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("schedd produced no listen line: %v", sc.Err())
	}
	addr := strings.TrimPrefix(sc.Text(), "schedd: listening on ")
	if addr == sc.Text() {
		t.Fatalf("unexpected first line: %q", sc.Text())
	}
	return cmd, "http://" + addr
}

// stopSchedd sends SIGTERM, which must drain and exit 0.
func stopSchedd(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("SIGTERM drain: want exit 0, got %v", err)
	}
}

// scheddUnit is one /v1/schedule request body and the orders a local
// cache-disabled engine schedules for its blocks.
type scheddUnit struct {
	body string
	want [][]int32
}

// scheddUnits renders the whole Table 3 corpus into 32-block request
// bodies and schedules each one locally, parsed exactly as the daemon
// parses it. Every block gets a label line: synthesized blocks carry
// none, and without one consecutive blocks that do not end in a CTI
// would fuse when the text is partitioned again.
func scheddUnits(t *testing.T, m *machine.Model) []scheddUnit {
	t.Helper()
	ref, err := engine.New(engine.Config{Workers: 1, Model: m, KeepOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	var all []*block.Block
	for _, set := range tables.Table3Sets() {
		all = append(all, set.Blocks...)
	}
	const unitBlocks = 32
	var units []scheddUnit
	for start := 0; start < len(all); start += unitBlocks {
		var sb strings.Builder
		for i, b := range all[start:min(start+unitBlocks, len(all))] {
			fmt.Fprintf(&sb, "u%d:\n", i)
			sb.WriteString(asm.Print(b.Insts))
		}
		u := scheddUnit{body: sb.String()}
		sc := asm.NewBlockScanner(strings.NewReader(u.body))
		var blocks []*block.Block
		for {
			b := &block.Block{}
			ok, err := sc.Next(b)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			blocks = append(blocks, b)
		}
		res, err := ref.Run(blocks)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range res.Orders {
			u.want = append(u.want, slices.Clone(o))
		}
		units = append(units, u)
	}
	return units
}

// postUnit posts one unit and returns the HTTP status and a note: on a
// 200, the first way its orders differ from the reference ("" if none);
// otherwise the start of the response body.
func postUnit(client *http.Client, base string, u *scheddUnit) (int, string, error) {
	resp, err := client.Post(base+"/v1/schedule", "text/plain", strings.NewReader(u.body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, string(body), nil
	}
	var got struct {
		Results []struct {
			Order []int32 `json:"order"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		return resp.StatusCode, "", err
	}
	if len(got.Results) != len(u.want) {
		return resp.StatusCode, fmt.Sprintf("%d blocks, reference has %d", len(got.Results), len(u.want)), nil
	}
	for i, r := range got.Results {
		if !slices.Equal(r.Order, u.want[i]) {
			return resp.StatusCode, fmt.Sprintf("block %d: order %v, reference %v", i, r.Order, u.want[i]), nil
		}
	}
	return resp.StatusCode, "", nil
}

// postAllUnits posts every unit once, requires each answer to be a 200
// byte-identical to the reference, and returns the daemon's cache hit
// rate and disk hits since it started.
func postAllUnits(t *testing.T, client *http.Client, base string, units []scheddUnit) (float64, int64) {
	t.Helper()
	for i := range units {
		code, diff, err := postUnit(client, base, &units[i])
		if err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
		if code != http.StatusOK {
			t.Fatalf("unit %d: HTTP %d: %s", i, code, diff)
		}
		if diff != "" {
			t.Fatalf("unit %d diverged from the cache-disabled reference: %s", i, diff)
		}
	}
	resp, err := client.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap server.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	ec := snap.Engine
	hits := ec.CacheHits + ec.DiskHits
	if hits+ec.CacheMisses == 0 {
		return 0, 0
	}
	return float64(hits) / float64(hits+ec.CacheMisses), ec.DiskHits
}

// TestSmokeScheddWarmRestart is the daemon's warm-restart gate over the
// whole Table 3 corpus. Every 200 in every phase must be byte-identical
// to a local cache-disabled engine. A daemon killed with SIGKILL while
// requests are in flight must come back on the same cache file serving
// at least 90% of blocks from cache, some straight from disk; one that
// drained cleanly on SIGTERM must come back serving at least 99%; and
// a cache file overwritten with garbage must cost a rebuild, never a
// failed or wrong answer.
func TestSmokeScheddWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short mode")
	}
	schedd := buildTool(t, "schedd")
	cache := filepath.Join(t.TempDir(), "sched.cache")
	units := scheddUnits(t, machine.Super2())
	client := &http.Client{Timeout: 30 * time.Second}
	// A block that outlives a soft deadline is served in program order
	// by design, so identity with the reference holds only without one;
	// the deadline ladder has tests of its own in internal/server.
	flags := []string{"-model", "super2", "-cachefile", cache, "-blocktimeout", "0"}

	// Phase 1: a cold daemon populates the file.
	cmd, base := startSchedd(t, schedd, flags...)
	postAllUnits(t, client, base, units)
	// Let the write-behind flusher reach the file.
	time.Sleep(time.Second)

	// Phase 2: SIGKILL with requests in flight. Four clients post every
	// unit between them; the eighth answer triggers the kill, and what
	// the other clients still have outstanding fails.
	var answered atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(units); i += 4 {
				code, diff, err := postUnit(client, base, &units[i])
				if err != nil {
					return
				}
				if code == http.StatusOK && diff != "" {
					t.Errorf("unit %d diverged from the cache-disabled reference: %s", i, diff)
				}
				if answered.Add(1) == 8 {
					_ = cmd.Process.Kill()
				}
			}
		}()
	}
	wg.Wait()
	if n := answered.Load(); n < 8 {
		t.Fatalf("only %d requests answered before the clients stopped; the kill never fired", n)
	}
	_ = cmd.Wait()

	// Phase 3: a restart on the same file serves warm, partly from disk.
	cmd, base = startSchedd(t, schedd, flags...)
	rate, disk := postAllUnits(t, client, base, units)
	t.Logf("after SIGKILL: hit rate %.4f, %d disk hits", rate, disk)
	if rate < 0.9 || disk == 0 {
		t.Errorf("after SIGKILL: hit rate %.4f with %d disk hits, want at least 0.9 and some", rate, disk)
	}
	stopSchedd(t, cmd)

	// Phase 4: after a clean drain nearly every block is on disk.
	cmd, base = startSchedd(t, schedd, flags...)
	rate, disk = postAllUnits(t, client, base, units)
	t.Logf("after SIGTERM: hit rate %.4f, %d disk hits", rate, disk)
	if rate < 0.99 {
		t.Errorf("after SIGTERM: hit rate %.4f, want at least 0.99", rate)
	}
	stopSchedd(t, cmd)

	// Phase 5: 16 KiB of garbage over the file's head.
	f, err := os.OpenFile(cache, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, 16<<10)
	rand.New(rand.NewSource(1)).Read(garbage)
	if _, err := f.WriteAt(garbage, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cmd, base = startSchedd(t, schedd, flags...)
	postAllUnits(t, client, base, units)
	stopSchedd(t, cmd)
}
