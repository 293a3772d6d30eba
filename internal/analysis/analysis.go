// Package analysis is schedlint: a repo-specific static-analysis
// suite, built only on the standard library's go/ast, go/parser,
// go/types and go/token, that enforces the invariants the scheduling
// engine's performance work bought its speed with but that the
// compiler cannot check:
//
//   - noalloc: functions annotated //sched:noalloc (and everything
//     they statically call within the module) must contain no
//     allocating constructs. The engine's steady-state per-block path
//     is advertised as allocation-free; this pass is what keeps that
//     claim true as the code evolves.
//   - arenalife: values derived from the arena constructors
//     (dag.BuildArena, package buf, bitset.Slab.Carve, the frozen CSR
//     views) are invalidated by the arena's next BuildInto. They must
//     not be stored in package-level variables nor returned across an
//     exported boundary outside the arena-owning packages.
//   - guardedby: struct fields annotated //sched:guarded-by <mu> may
//     only be touched while <mu> is held on the same receiver path —
//     the schedule cache's sharded stripes are the motivating case.
//   - benchallocs: every Benchmark in the hot packages must call
//     b.ReportAllocs(), so a regression from 0 allocs/op is visible in
//     every benchmark run, not only the ones someone thought to check.
//   - lockorder: mutex fields annotated //sched:lock-rank <n> form a
//     static lock order; an acquisition while holding an equal or
//     higher rank, or any acquisition cycle, is reported.
//   - atomicfield: a field touched via sync/atomic anywhere may never
//     be read or written plainly outside a //sched:atomic-init
//     constructor.
//   - condloop: Cond.Wait must sit inside a for loop, and writes to
//     //sched:signals fields must be followed by a Signal/Broadcast on
//     the named condition variable.
//   - cancelpoll: //sched:cancellable functions must poll ctx.Err(),
//     ctx.Done() or a done channel on every loop without a statically
//     bounded trip count.
//   - panicsafe: inside //sched:recover-boundary call trees, no mutex
//     may be held across a call that can panic unless the unlock is
//     deferred.
//
// Diagnostics are file:line:col: [pass] message lines (or JSON with
// -json) and any finding can be suppressed per line with
// //sched:lint-ignore <pass> <reason> — the reason is mandatory; an
// undocumented suppression is itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Diag is one finding. File is module-relative so output is stable
// across checkouts.
type Diag struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Pass string `json:"pass"`
	Msg  string `json:"message"`
}

func (d Diag) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Pass, d.Msg)
}

// FuncInfo pairs a function declaration with the package it lives in.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Context is one schedlint run: the loaded packages under analysis,
// plus indexes shared by the passes.
type Context struct {
	Loader *Loader
	// Pkgs are the packages named on the command line; passes report
	// findings rooted in these (noalloc may follow calls into, and
	// report inside, other module packages the loader pulled in).
	Pkgs []*Package
	// Funcs indexes every function declaration of every module package
	// the loader has seen, keyed by its type-checker object — the
	// cross-package call-graph map the noalloc pass walks.
	Funcs map[*types.Func]*FuncInfo
	// Audit enables the unused-suppression audit: a //sched:lint-ignore
	// whose pass ran but never fired on a covered line becomes a
	// lint-ignore finding of its own. CI runs with this on (strict
	// mode) so stale suppressions cannot rot silently.
	Audit bool
	// Stats is filled by Run: one entry per executed pass, in registry
	// order, with its post-suppression finding count and wall time.
	Stats []PassStat
}

// PassStat is one pass's cost and yield in a Run invocation.
type PassStat struct {
	Name     string
	Findings int
	Duration time.Duration
}

// Load loads the packages matching patterns (relative to the module
// containing dir) and builds the shared indexes.
func Load(dir string, patterns []string) (*Context, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	ctx := &Context{Loader: l, Funcs: make(map[*types.Func]*FuncInfo)}
	for _, d := range dirs {
		pkg, err := l.LoadDir(d)
		if err != nil {
			return nil, err
		}
		ctx.Pkgs = append(ctx.Pkgs, pkg)
	}
	// Index declarations over everything the loader saw, not only the
	// requested packages, so call graphs cross package boundaries even
	// under narrow patterns.
	for _, pkg := range l.pkgs {
		if pkg == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					ctx.Funcs[obj] = &FuncInfo{Decl: fd, Pkg: pkg}
				}
			}
		}
	}
	return ctx, nil
}

// Passes is the registry, in reporting order.
var Passes = []struct {
	Name string
	Run  func(*Context) []Diag
	Doc  string
}{
	{"noalloc", runNoalloc, "//sched:noalloc functions and their static callees must not allocate"},
	{"arenalife", runArenaLife, "arena-backed values must not outlive the next BuildInto (no globals, no exported returns)"},
	{"guardedby", runGuardedBy, "//sched:guarded-by fields only touched under their mutex"},
	{"benchallocs", runBenchAllocs, "hot-package benchmarks must call b.ReportAllocs()"},
	{"lockorder", runLockOrder, "//sched:lock-rank mutexes must be acquired in strictly increasing rank, acyclically"},
	{"atomicfield", runAtomicField, "fields touched via sync/atomic must never be accessed plainly outside //sched:atomic-init"},
	{"condloop", runCondLoop, "Cond.Wait needs a for loop; //sched:signals writes need a Signal/Broadcast after them"},
	{"cancelpoll", runCancelPoll, "//sched:cancellable loops without bounded trip counts must poll for cancellation"},
	{"panicsafe", runPanicSafe, "//sched:recover-boundary call trees must not hold a mutex across a panicking call undeferred"},
}

// PassNames returns the registry's pass names in order.
func PassNames() []string {
	names := make([]string, len(Passes))
	for i, p := range Passes {
		names[i] = p.Name
	}
	return names
}

// Run executes the named passes (nil or empty = all) and returns the
// surviving findings: suppressed diagnostics are dropped, malformed
// suppressions are added as findings of their own, and the result is
// deduplicated and sorted by position. With ctx.Audit set, a
// suppression that an executed pass never used is itself a finding.
func (ctx *Context) Run(passes []string) ([]Diag, error) {
	want := make(map[string]bool)
	for _, p := range passes {
		want[p] = true
	}
	if len(passes) > 0 {
		for _, p := range passes {
			known := false
			for _, reg := range Passes {
				if reg.Name == p {
					known = true
				}
			}
			if !known {
				return nil, fmt.Errorf("analysis: unknown pass %q (valid passes: %s)", p, strings.Join(PassNames(), ", "))
			}
		}
	}
	ctx.Stats = ctx.Stats[:0]
	ran := make(map[string]bool)
	var diags []Diag
	for _, reg := range Passes {
		if len(want) > 0 && !want[reg.Name] {
			continue
		}
		t0 := time.Now()
		diags = append(diags, reg.Run(ctx)...)
		ctx.Stats = append(ctx.Stats, PassStat{Name: reg.Name, Duration: time.Since(t0)})
		ran[reg.Name] = true
	}
	sup := ctx.suppressions()
	diags = append(diags, sup.malformed...)
	var kept []Diag
	seen := make(map[Diag]bool)
	for _, d := range diags {
		if sup.covers(d) || seen[d] {
			continue
		}
		seen[d] = true
		kept = append(kept, d)
	}
	if ctx.Audit {
		// After filtering: only now is every suppression's used bit
		// final. Audit findings are deliberately unsuppressible — a
		// lint-ignore shielding another lint-ignore is turtles.
		for _, d := range sup.unused(ctx, ran) {
			if !seen[d] {
				seen[d] = true
				kept = append(kept, d)
			}
		}
	}
	counts := make(map[string]int)
	for _, d := range kept {
		counts[d.Pass]++
	}
	for i := range ctx.Stats {
		ctx.Stats[i].Findings = counts[ctx.Stats[i].Name]
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Pass < b.Pass
	})
	return kept, nil
}

// diag builds a Diag at pos with a module-relative file path.
func (ctx *Context) diag(pos token.Pos, pass, format string, args ...any) Diag {
	p := ctx.Loader.Fset.Position(pos)
	file := p.Filename
	if rel, err := filepath.Rel(ctx.Loader.ModuleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return Diag{File: file, Line: p.Line, Col: p.Column, Pass: pass, Msg: fmt.Sprintf(format, args...)}
}

// funcDisplayName renders a *types.Func as pkg.Func or pkg.(*Recv).Method
// with the package's base name only, for readable diagnostics.
func funcDisplayName(f *types.Func) string {
	full := f.FullName()
	if pkg := f.Pkg(); pkg != nil {
		full = strings.ReplaceAll(full, pkg.Path(), pkg.Name())
	}
	return full
}
