// Annotation grammar. All schedlint annotations are comment
// directives (no space after //, like //go:noinline):
//
//	//sched:noalloc
//	    on a func declaration: the function and everything it
//	    statically calls within the module must not allocate.
//	//sched:guarded-by <field>
//	    on a struct field (doc or trailing comment): the field may only
//	    be read or written while the sibling mutex field <field> is
//	    held on the same access path.
//	//sched:lock-rank <n>
//	    on a mutex field: the field participates in the module's static
//	    lock order. While any ranked mutex is held, only mutexes of
//	    strictly greater rank may be acquired.
//	//sched:atomic-init
//	    on a func declaration: the function is a constructor that may
//	    touch atomically-accessed fields plainly, before the object is
//	    published.
//	//sched:signals <field>
//	    on a struct field: every write of the field must be followed by
//	    a Signal/Broadcast/Wait on the sibling *sync.Cond field <field>
//	    on the same path — the field is part of a condition-variable
//	    predicate and a silent mutation strands waiters.
//	//sched:cancellable
//	    on a func declaration: every loop in the function (and in its
//	    static callees within the same package) that lacks a statically
//	    bounded trip count must poll for cancellation.
//	//sched:recover-boundary
//	    on a func declaration: the function's call tree runs under (or
//	    contains) a recover boundary; no mutex may be held across a
//	    call that can panic unless its unlock is deferred.
//	//sched:lint-ignore <pass> <reason>
//	    suppresses <pass> findings on the comment's line and on the
//	    line immediately below it. The reason is mandatory: an
//	    invariant exception nobody can explain is a bug report, not a
//	    suppression.
package analysis

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	dirNoalloc         = "//sched:noalloc"
	dirGuardedBy       = "//sched:guarded-by"
	dirLockRank        = "//sched:lock-rank"
	dirAtomicInit      = "//sched:atomic-init"
	dirSignals         = "//sched:signals"
	dirCancellable     = "//sched:cancellable"
	dirRecoverBoundary = "//sched:recover-boundary"
	dirIgnore          = "//sched:lint-ignore"
)

// hasFuncDirective reports whether fn's doc comment carries the given
// marker directive (one with no arguments).
func hasFuncDirective(fn *ast.FuncDecl, dir string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == dir || strings.HasPrefix(c.Text, dir+" ") {
			return true
		}
	}
	return false
}

// hasNoallocDirective reports whether fn's doc comment carries
// //sched:noalloc.
func hasNoallocDirective(fn *ast.FuncDecl) bool {
	return hasFuncDirective(fn, dirNoalloc)
}

// fieldDirectiveArg returns the first argument of the given directive
// on field (doc or trailing comment), or "".
func fieldDirectiveArg(field *ast.Field, dir string) string {
	for _, g := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if rest, ok := strings.CutPrefix(c.Text, dir+" "); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					return fields[0]
				}
			}
		}
	}
	return ""
}

// guardedByMutex returns the mutex field name from a
// //sched:guarded-by directive on field, or "".
func guardedByMutex(field *ast.Field) string {
	return fieldDirectiveArg(field, dirGuardedBy)
}

// signalsCond returns the condition-variable field name from a
// //sched:signals directive on field, or "".
func signalsCond(field *ast.Field) string {
	return fieldDirectiveArg(field, dirSignals)
}

// lockRank returns the rank from a //sched:lock-rank directive on
// field. ok distinguishes "no directive" from rank 0; a directive
// whose argument is not an integer reports ok with bad set, so the
// lockorder pass can flag it.
func lockRank(field *ast.Field) (rank int, ok, bad bool) {
	arg := fieldDirectiveArg(field, dirLockRank)
	if arg == "" {
		return 0, false, false
	}
	n, err := strconv.Atoi(arg)
	if err != nil {
		return 0, true, true
	}
	return n, true, false
}

// suppressionIndex holds every //sched:lint-ignore comment of the run.
type suppressionIndex struct {
	// byLine maps (module-relative file, line) to the suppressions
	// declared on that line.
	byLine    map[supKey][]*supEntry
	malformed []Diag
}

type supKey struct {
	file string
	line int
}

// supEntry is one well-formed suppression. used is set by covers when
// a diagnostic of the suppressed pass actually lands on a covered
// line; the unused-suppression audit reports entries that stay cold.
// named marks a suppression in a package named on the command line:
// only those are audited, because a dependency's own roots are not
// analysed and its suppressions cannot be known to be cold.
type supEntry struct {
	pass  string
	pos   token.Pos
	used  bool
	named bool
}

// suppressions scans every file the loader parsed (including test
// files and dependency packages, where noalloc can report) for
// lint-ignore comments.
func (ctx *Context) suppressions() *suppressionIndex {
	idx := &suppressionIndex{byLine: make(map[supKey][]*supEntry)}
	named := make(map[*Package]bool, len(ctx.Pkgs))
	for _, pkg := range ctx.Pkgs {
		named[pkg] = true
	}
	for _, pkg := range ctx.Loader.pkgs {
		if pkg == nil {
			continue
		}
		for _, files := range [][]*ast.File{pkg.Files, pkg.TestFiles} {
			for _, f := range files {
				for _, g := range f.Comments {
					for _, c := range g.List {
						idx.add(ctx, c, named[pkg])
					}
				}
			}
		}
	}
	return idx
}

func (idx *suppressionIndex) add(ctx *Context, c *ast.Comment, named bool) {
	if c.Text != dirIgnore && !strings.HasPrefix(c.Text, dirIgnore+" ") {
		return
	}
	fields := strings.Fields(strings.TrimPrefix(c.Text, dirIgnore))
	bad := func(msg string) {
		idx.malformed = append(idx.malformed, ctx.diag(c.Pos(), "lint-ignore", "%s (want %s <pass> <reason>)", msg, dirIgnore))
	}
	if len(fields) == 0 {
		bad("suppression names no pass")
		return
	}
	pass := fields[0]
	known := false
	for _, reg := range Passes {
		if reg.Name == pass {
			known = true
		}
	}
	if !known {
		bad("suppression names unknown pass " + pass)
		return
	}
	if len(fields) < 2 {
		bad("suppression for " + pass + " gives no reason")
		return
	}
	pos := ctx.Loader.Fset.Position(c.Pos())
	file := pos.Filename
	if rel, err := filepath.Rel(ctx.Loader.ModuleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	key := supKey{file, pos.Line}
	idx.byLine[key] = append(idx.byLine[key], &supEntry{pass: pass, pos: c.Pos(), named: named})
}

// covers reports whether d is suppressed: a matching lint-ignore on
// d's own line or on the line directly above it. A match marks the
// suppression used for the audit.
func (idx *suppressionIndex) covers(d Diag) bool {
	hit := false
	for _, line := range []int{d.Line, d.Line - 1} {
		for _, e := range idx.byLine[supKey{d.File, line}] {
			if e.pass == d.Pass {
				e.used = true
				hit = true
			}
		}
	}
	return hit
}

// unused returns one finding per suppression whose pass ran in this
// invocation but never fired on a covered line — a stale suppression
// that would otherwise rot silently. Suppressions for passes that did
// not run are left alone: a -passes subset must not condemn the
// other passes' suppressions. So are those outside the named
// packages: a narrow pattern must not condemn its dependencies'.
func (idx *suppressionIndex) unused(ctx *Context, ran map[string]bool) []Diag {
	var diags []Diag
	for _, entries := range idx.byLine {
		for _, e := range entries {
			if e.used || !e.named || !ran[e.pass] {
				continue
			}
			diags = append(diags, ctx.diag(e.pos, "lint-ignore",
				"unused suppression: no %s finding fires here (delete it, or explain what changed)", e.pass))
		}
	}
	return diags
}
