// The arenalife pass. The reuse-aware construction path hands out
// storage that is recycled on the arena's next BuildInto:
// dag.BuildArena's DAGs, the frozen CSR views and their packed arc
// arrays, package buf's zeroing-resize slices, and bitset.Slab's
// carved sets. Such values are only safe while the current block is
// being processed. This pass flags the two ways they can outlive that
// window:
//
//   - a store into a package-level variable (directly, or through a
//     selector/index path rooted at one);
//   - a return from an exported function or method of a package
//     outside the arena-owning trio (dag, bitset, buf) — the "engine
//     boundary": exported API must copy, never leak worker scratch.
//     diskcache's mmap-backed views are held to the same rule without
//     owner status: its exported API must copy out of the mapping.
//
// Taint is intra-procedural: a value is arena-derived if it is
// assigned from an expression containing an arena-source call or a
// previously tainted variable. Cross-function flows are the job of the
// conventions the engine documents (worker scratch is private); the
// lint layer catches the accidental global or leaked return, which is
// how such bugs have actually been written.
package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// arenaSourceMethods lists, per arena-owning package (keyed by its
// path suffix under the module), the functions/methods whose results
// (or all functions, for "*") are arena-backed.
var arenaSourceMethods = map[string]map[string]bool{
	"internal/buf": {"*": true},
	"internal/dag": {
		"resetFor": true, "BuildInto": true, "Freeze": true,
		"PackedSuccArcs": true, "PackedPredArcs": true,
	},
	"internal/bitset": {"Carve": true},
	// diskcache's i32s is an unsafe.Slice view straight into the mmap
	// region: valid only until Close unmaps it, and mutable by other
	// processes. It must never be stored globally or returned across
	// diskcache's exported boundary (Lookup copies into the caller's
	// Entry scratch instead) — and diskcache is deliberately NOT an
	// arena-owner package, so that boundary rule is enforced.
	"internal/diskcache": {"i32s": true},
}

// arenaOwnerPkgs are the packages whose exported API legitimately
// returns arena-backed values (the ownership contract is theirs to
// document); the exported-return sink applies everywhere else.
var arenaOwnerPkgs = map[string]bool{
	"internal/buf": true, "internal/dag": true, "internal/bitset": true,
}

func runArenaLife(ctx *Context) []Diag {
	var diags []Diag
	for _, pkg := range ctx.Pkgs {
		suffix := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, ctx.Loader.ModulePath), "/")
		ownerPkg := arenaOwnerPkgs[suffix]
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ctx.checkArenaLife(pkg, fd, ownerPkg, &diags)
			}
		}
	}
	return diags
}

// isArenaSource reports whether call's callee is one of the arena
// constructors/accessors.
func (ctx *Context) isArenaSource(info *types.Info, call *ast.CallExpr) bool {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ = sel.Obj().(*types.Func) // includes interface methods (ReuseBuilder.BuildInto)
		} else {
			fn, _ = info.Uses[fun.Sel].(*types.Func)
		}
	}
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	mod := ctx.Loader.ModulePath
	if path != mod && !strings.HasPrefix(path, mod+"/") {
		return false
	}
	suffix := strings.TrimPrefix(strings.TrimPrefix(path, mod), "/")
	methods := arenaSourceMethods[suffix]
	if methods == nil {
		return false
	}
	return methods["*"] || methods[fn.Name()]
}

func (ctx *Context) checkArenaLife(pkg *Package, fd *ast.FuncDecl, ownerPkg bool, diags *[]Diag) {
	info := pkg.Info

	// tainted holds the local variables known to carry arena-backed
	// storage, grown to a fixpoint over the function's assignments.
	tainted := make(map[*types.Var]bool)
	exprTainted := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if ctx.isArenaSource(info, n) {
					found = true
				}
				// len(s)/cap(s) of a tainted slice yield plain ints:
				// don't descend, the result carries no arena storage.
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
						return false
					}
				}
			case *ast.Ident:
				if v, ok := info.Uses[n].(*types.Var); ok && tainted[v] {
					found = true
				}
			}
			return !found
		})
		return found
	}
	taintLHS := func(e ast.Expr) bool {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := info.Defs[id].(*types.Var); ok && !tainted[v] {
				tainted[v] = true
				return true
			}
			if v, ok := info.Uses[id].(*types.Var); ok && v.Parent() != pkg.Types.Scope() && !tainted[v] {
				tainted[v] = true
				return true
			}
		}
		return false
	}
	for changed, rounds := true, 0; changed && rounds < 16; rounds++ {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						if exprTainted(rhs) && taintLHS(n.Lhs[i]) {
							changed = true
						}
					}
				} else if len(n.Rhs) == 1 && exprTainted(n.Rhs[0]) {
					for _, lhs := range n.Lhs {
						if taintLHS(lhs) {
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Values) > 0 {
					anyTainted := false
					for _, v := range n.Values {
						if exprTainted(v) {
							anyTainted = true
						}
					}
					if anyTainted {
						for _, name := range n.Names {
							if v, ok := info.Defs[name].(*types.Var); ok && !tainted[v] {
								tainted[v] = true
								changed = true
							}
						}
					}
				}
			}
			return true
		})
	}

	// Sink 1: stores whose destination is rooted at a package-level
	// variable.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			var rhs ast.Expr
			if len(as.Lhs) == len(as.Rhs) {
				rhs = as.Rhs[i]
			} else if len(as.Rhs) == 1 {
				rhs = as.Rhs[0]
			}
			if rhs == nil || !exprTainted(rhs) {
				continue
			}
			root := rootIdent(lhs)
			if root == nil {
				continue
			}
			obj := info.Uses[root]
			if obj == nil {
				obj = info.Defs[root]
			}
			if v, ok := obj.(*types.Var); ok && v.Parent() == pkg.Types.Scope() {
				*diags = append(*diags, ctx.diag(lhs.Pos(), "arenalife",
					"arena-backed value stored in package-level %s outlives the arena's next BuildInto", root.Name))
			}
		}
		return true
	})

	// Sink 2: arena-backed values returned from an exported boundary
	// of a non-arena, non-main package.
	if ownerPkg || pkg.Types.Name() == "main" || !exportedBoundary(info, fd) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // returns inside closures return from the closure
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if exprTainted(res) {
				*diags = append(*diags, ctx.diag(res.Pos(), "arenalife",
					"arena-backed value returned across the exported boundary of %s; callers outlive the arena's next BuildInto", funcDisplayName(info.Defs[fd.Name].(*types.Func))))
			}
		}
		return true
	})
}

// exportedBoundary reports whether fd is callable from outside its
// package: an exported function, or an exported method on an exported
// type.
func exportedBoundary(info *types.Info, fd *ast.FuncDecl) bool {
	if !fd.Name.IsExported() {
		return false
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return true
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return true
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Exported()
	}
	return true
}

// rootIdent walks selector/index/star/paren chains down to the base
// identifier, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
