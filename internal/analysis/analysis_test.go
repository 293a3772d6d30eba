package analysis

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// want is one expected diagnostic, parsed from a testdata comment.
type want struct {
	file string // module-relative, slash-separated
	line int
	pass string
	text string // must be a substring of the diagnostic message
}

// parseWants scans every .go file under dir for expectation comments:
//
//	code // want [pass] substring
//	code // want [p1] text1 // want [p2] text2
//	code // want:17 [pass] substring
//
// The explicit-line form anchors diagnostics that land on directive
// comments, where an inline want would become part of the directive.
func parseWants(t *testing.T, modRoot, dir string) []want {
	t.Helper()
	var wants []want
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(modRoot, path)
		if err != nil {
			return err
		}
		file := filepath.ToSlash(rel)
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want")
			if idx < 0 {
				continue
			}
			for _, piece := range strings.Split(line[idx:], "// want")[1:] {
				wants = append(wants, parseWant(t, file, i+1, piece))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) == 0 {
		t.Fatalf("no want comments under %s", dir)
	}
	return wants
}

func parseWant(t *testing.T, file string, line int, piece string) want {
	t.Helper()
	malformed := func() {
		t.Fatalf("%s:%d: malformed want comment %q", file, line, piece)
	}
	if rest, ok := strings.CutPrefix(piece, ":"); ok {
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			malformed()
		}
		n, err := strconv.Atoi(rest[:sp])
		if err != nil {
			malformed()
		}
		line, piece = n, rest[sp:]
	}
	body := strings.TrimSpace(piece)
	end := strings.Index(body, "]")
	if !strings.HasPrefix(body, "[") || end < 0 {
		malformed()
	}
	return want{file: file, line: line, pass: body[1:end], text: strings.TrimSpace(body[end+1:])}
}

// runGolden loads one testdata package, runs every pass, and requires
// an exact match between diagnostics and want comments: every
// diagnostic matched by a want, every want matched by a diagnostic.
func runGolden(t *testing.T, name string) {
	t.Helper()
	defer func(old []string) { HotBenchPackages = old }(HotBenchPackages)
	HotBenchPackages = append([]string{"internal/analysis/testdata/src/benchallocs"}, DefaultHotBenchPackages...)

	pat := "internal/analysis/testdata/src/" + name
	ctx, err := Load(".", []string{pat})
	if err != nil {
		t.Fatal(err)
	}
	ctx.Audit = true // goldens run strict: stale suppressions are findings too
	diags, err := ctx.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	wants := parseWants(t, ctx.Loader.ModuleDir, filepath.Join(ctx.Loader.ModuleDir, filepath.FromSlash(pat)))

	used := make([]bool, len(wants))
	for _, d := range diags {
		matched := false
		for i, w := range wants {
			if !used[i] && w.file == d.File && w.line == d.Line && w.pass == d.Pass && strings.Contains(d.Msg, w.text) {
				used[i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !used[i] {
			t.Errorf("missing diagnostic: %s:%d: [%s] ...%s...", w.file, w.line, w.pass, w.text)
		}
	}
}

func TestNoallocGolden(t *testing.T)      { runGolden(t, "noalloc") }
func TestArenaLifeGolden(t *testing.T)    { runGolden(t, "arenalife") }
func TestGuardedByGolden(t *testing.T)    { runGolden(t, "guardedby") }
func TestBenchAllocsGolden(t *testing.T)  { runGolden(t, "benchallocs") }
func TestLockOrderGolden(t *testing.T)    { runGolden(t, "lockorder") }
func TestAtomicFieldGolden(t *testing.T)  { runGolden(t, "atomicfield") }
func TestCondLoopGolden(t *testing.T)     { runGolden(t, "condloop") }
func TestCancelPollGolden(t *testing.T)   { runGolden(t, "cancelpoll") }
func TestPanicSafeGolden(t *testing.T)    { runGolden(t, "panicsafe") }
func TestUnusedIgnoreGolden(t *testing.T) { runGolden(t, "unusedignore") }

// TestSelfHostClean is the lint suite linting its own repository: the
// annotated hot paths must produce zero findings under the full
// nine-pass suite, stale suppressions included. A regression here is
// exactly the class of bug schedlint exists to catch.
func TestSelfHostClean(t *testing.T) {
	ctx, err := Load(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	ctx.Audit = true
	diags, err := ctx.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("self-host finding: %s", d)
	}
}

// TestAuditNarrowPattern lints one package that imports suppressed
// code: the audit must judge only the named package's suppressions,
// since the dependencies' own roots never run and their suppressions
// would all look cold.
func TestAuditNarrowPattern(t *testing.T) {
	ctx, err := Load(".", []string{"./internal/heur"})
	if err != nil {
		t.Fatal(err)
	}
	ctx.Audit = true
	diags, err := ctx.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("narrow-pattern finding: %s", d)
	}
}
