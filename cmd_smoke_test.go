// Smoke tests for the command-line tools: each binary is exercised
// through `go run` with its common flag combinations. Slow (compiles
// each tool), so skipped under -short.
package daginsched_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
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
		{"schedbench bad fault rate", schedbench, "schedbench", "", []string{"-chaos", "-faultrate", "7"}, 2},
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

// TestSmokeSchedbenchChaos runs the -chaos fault-injection gate the
// way CI does and requires it to pass.
func TestSmokeSchedbenchChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short mode")
	}
	out := runTool(t, "", "schedbench", "-chaos", "-bench", "grep", "-workers", "8")
	if !strings.Contains(out, "chaos gate: PASS") {
		t.Errorf("schedbench -chaos:\n%s", out)
	}
	for _, want := range []string{"faulted blocks", "quarantines", "mismatched blocks"} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos report missing %q:\n%s", want, out)
		}
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

	// Live daemon on an ephemeral port; the listen line carries the
	// resolved address.
	cmd := exec.Command(schedd, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("schedd produced no listen line: %v", sc.Err())
	}
	addr := strings.TrimPrefix(sc.Text(), "schedd: listening on ")
	if addr == sc.Text() {
		t.Fatalf("unexpected first line: %q", sc.Text())
	}
	base := "http://" + addr

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

	// SIGTERM must drain and exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("SIGTERM drain: want exit 0, got %v", err)
	}
}

func TestSmokeSchedbenchCachefile(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	cachePath := filepath.Join(dir, "sched.cache")

	out := runTool(t, "", "schedbench", "-cachefile", cachePath, "-bench", "grep")
	for _, want := range []string{"Warm-start benchmark", "byte-identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("schedbench -cachefile missing %q:\n%s", want, out)
		}
	}

	// Second process over the same file: the gate demands the first
	// pass itself be served from disk, and the fresh engine after it
	// must serve the corpus from the cache.
	out = runTool(t, "", "schedbench", "-cachefile", cachePath,
		"-warmexpect", "0.99", "-bench", "grep")
	if !strings.Contains(out, "byte-identical") {
		t.Errorf("schedbench -cachefile -warmexpect:\n%s", out)
	}
	var warmHit float64
	for _, l := range strings.Split(out, "\n") {
		if _, rest, ok := strings.Cut(l, "warm start "); ok {
			if _, hit, ok := strings.Cut(rest, "hit "); ok {
				fmt.Sscanf(hit, "%f%%", &warmHit)
			}
		}
	}
	if warmHit < 99 {
		t.Errorf("warm-start hit rate %.1f%%, want at least 99%%:\n%s", warmHit, out)
	}

	schedbench := buildTool(t, "schedbench")
	// -warmexpect against a file no process populated must fail with a
	// one-line diagnostic.
	freshCache := filepath.Join(dir, "fresh.cache")
	out2, code := runToolErr(t, "", schedbench, "-cachefile", freshCache,
		"-warmexpect", "0.99", "-bench", "grep")
	if code != 1 {
		t.Errorf("unpopulated -warmexpect exit code %d, want 1\n%s", code, out2)
	}
	out2, code = runToolErr(t, "", schedbench, "-warmexpect", "0.5")
	if code != 2 {
		t.Errorf("-warmexpect without -cachefile exit code %d, want 2\n%s", code, out2)
	}
	requireDiagnostic(t, "schedbench", out2)
}
