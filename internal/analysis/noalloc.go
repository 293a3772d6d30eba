// The noalloc pass. A function annotated //sched:noalloc promises the
// engine's central performance property: in steady state (every
// recycled buffer grown to the stream's largest block) the function
// performs zero heap allocations. The pass walks the function and
// everything it statically calls within the module and rejects every
// construct that can allocate:
//
//   - make, new, append (capacity statically unknown), map writes
//   - composite literals that escape (&T{...}) and slice/map literals
//   - string concatenation and string<->[]byte/[]rune conversions
//   - function literals whose closure escapes (passed as an argument,
//     returned, stored in a field, or started as a goroutine)
//   - interface boxing of non-pointer values at call sites and
//     assignments
//   - any call into fmt or errors
//   - go statements
//
// One idiom is exempt: an allocation lexically inside an if statement
// whose condition reads cap(...) is the growth arm of a reuse helper
// (buf.Int32, bitset.Reuse, growPacked) — the steady-state path takes
// the other branch, which is exactly the discipline the annotation
// documents. Everything else needs a //sched:lint-ignore noalloc with
// a reason.
//
// Limitations (by design, documented in DESIGN.md §7): calls through
// interfaces or function values are not followed (the engine's
// Selector.Pick is the known case), and escape analysis is purely
// syntactic.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

func runNoalloc(ctx *Context) []Diag {
	// Roots: annotated functions in the requested packages.
	var roots []*types.Func
	for _, pkg := range ctx.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hasNoallocDirective(fd) {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					roots = append(roots, obj)
				}
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		return ctx.Funcs[roots[i]].Decl.Pos() < ctx.Funcs[roots[j]].Decl.Pos()
	})

	var diags []Diag
	reported := make(map[token.Pos]bool)
	for _, root := range roots {
		for _, fn := range ctx.noallocClosure(root) {
			info := ctx.Funcs[fn]
			if info == nil || info.Decl.Body == nil {
				continue
			}
			ctx.checkNoalloc(fn, root, info, reported, &diags)
		}
	}
	return diags
}

// noallocClosure returns root plus every module function reachable
// from it through statically resolvable calls, in deterministic
// (breadth-first, then position) order.
func (ctx *Context) noallocClosure(root *types.Func) []*types.Func {
	seen := map[*types.Func]bool{root: true}
	order := []*types.Func{root}
	for i := 0; i < len(order); i++ {
		info := ctx.Funcs[order[i]]
		if info == nil || info.Decl.Body == nil {
			continue
		}
		var callees []*types.Func
		ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := staticCallee(info.Pkg.Info, call); callee != nil && !seen[callee] {
				if fi := ctx.Funcs[callee]; fi != nil {
					seen[callee] = true
					callees = append(callees, callee)
				}
			}
			return true
		})
		sort.Slice(callees, func(a, b int) bool {
			return ctx.Funcs[callees[a]].Decl.Pos() < ctx.Funcs[callees[b]].Decl.Pos()
		})
		order = append(order, callees...)
	}
	return order
}

// staticCallee resolves call to a concrete function or method within
// the type-checked world, or nil for builtins, conversions, interface
// methods and function-valued calls.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return nil // dynamic dispatch: not followed
			}
			return f
		}
		// Package-qualified call (pkg.Func).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// checkNoalloc scans one closure member for allocating constructs.
func (ctx *Context) checkNoalloc(fn, root *types.Func, info *FuncInfo, reported map[token.Pos]bool, diags *[]Diag) {
	ti := info.Pkg.Info
	exempt := capGuardRanges(info.Decl.Body, ti)
	parents := parentMap(info.Decl.Body)

	where := "in " + funcDisplayName(fn)
	if fn != root {
		where += " (reached from " + funcDisplayName(root) + ")"
	}
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] {
			return
		}
		for _, r := range exempt {
			if pos >= r[0] && pos < r[1] {
				return // capacity-guarded growth arm
			}
		}
		reported[pos] = true
		d := ctx.diag(pos, "noalloc", format, args...)
		d.Msg += " " + where
		*diags = append(*diags, d)
	}

	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			ctx.checkCall(ti, n, report)
		case *ast.CompositeLit:
			switch ti.Types[n].Type.Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal allocates")
			case *types.Map:
				report(n.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(lit.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(ti.Types[n].Type) {
				report(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			checkAssignAllocs(ti, n, report)
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && isMapIndex(ti, idx) {
				report(n.Pos(), "map update may allocate")
			}
		case *ast.FuncLit:
			checkFuncLitEscape(n, parents, report)
		case *ast.GoStmt:
			report(n.Pos(), "go statement allocates a goroutine")
		}
		return true
	})
}

// checkCall flags allocating calls: builtins, string conversions,
// fmt/errors, and interface boxing of concrete non-pointer arguments.
func (ctx *Context) checkCall(ti *types.Info, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := ti.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				report(call.Pos(), "append may grow its backing array (capacity statically unknown)")
			}
			return
		}
	}
	if tv, ok := ti.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: string <-> []byte/[]rune copies.
		dst := tv.Type.Underlying()
		if len(call.Args) == 1 {
			src := ti.Types[call.Args[0]].Type
			if src != nil {
				srcU := src.Underlying()
				if isStringType(dst) && isByteOrRuneSlice(srcU) ||
					isByteOrRuneSlice(dst) && isStringType(srcU) {
					report(call.Pos(), "string conversion allocates")
				}
			}
		}
		return
	}
	if callee := staticCallee(ti, call); callee != nil && callee.Pkg() != nil {
		switch callee.Pkg().Path() {
		case "fmt", "errors":
			report(call.Pos(), "call to %s allocates", funcDisplayName(callee))
			return
		}
	}
	// Interface boxing at the call boundary.
	sig, ok := ti.Types[call.Fun].Type.(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil && boxesInterface(pt, ti.Types[arg].Type) {
			report(arg.Pos(), "passing non-pointer value as interface boxes it on the heap")
		}
	}
}

// checkAssignAllocs flags map writes, string +=, and interface-boxing
// assignments.
func checkAssignAllocs(ti *types.Info, n *ast.AssignStmt, report func(token.Pos, string, ...any)) {
	for _, lhs := range n.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(ti, idx) {
			report(lhs.Pos(), "map assignment may allocate")
		}
	}
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(ti.Types[n.Lhs[0]].Type) {
		report(n.Pos(), "string concatenation allocates")
	}
	if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
		for i, lhs := range n.Lhs {
			lt := ti.Types[lhs].Type
			rt := ti.Types[n.Rhs[i]].Type
			if lt != nil && boxesInterface(lt, rt) {
				report(n.Rhs[i].Pos(), "assigning non-pointer value to interface boxes it on the heap")
			}
		}
	}
}

// checkFuncLitEscape flags function literals whose closure escapes the
// enclosing function. A literal invoked in place or assigned to a
// local variable stays on the stack; one passed as an argument,
// returned, stored through a selector/index, placed in a composite
// literal, sent on a channel, or started as a goroutine does not.
func checkFuncLitEscape(lit *ast.FuncLit, parents map[ast.Node]ast.Node, report func(token.Pos, string, ...any)) {
	parent := parents[lit]
	// Walk through any parens.
	for {
		p, ok := parent.(*ast.ParenExpr)
		if !ok {
			break
		}
		parent = parents[p]
	}
	switch p := parent.(type) {
	case *ast.CallExpr:
		if ast.Unparen(p.Fun) == lit {
			// Direct invocation; only a goroutine launch escapes.
			if _, isGo := parents[p].(*ast.GoStmt); isGo {
				report(lit.Pos(), "goroutine closure allocates")
			}
			return
		}
		report(lit.Pos(), "function literal passed as argument allocates its closure")
	case *ast.ReturnStmt:
		report(lit.Pos(), "returned function literal allocates its closure")
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if ast.Unparen(rhs) != lit {
				continue
			}
			if i < len(p.Lhs) {
				if _, ok := ast.Unparen(p.Lhs[i]).(*ast.Ident); ok {
					return // local variable: closure can stay on the stack
				}
			}
			report(lit.Pos(), "function literal stored outside a local variable allocates its closure")
		}
	case *ast.ValueSpec:
		return // var f = func(){...} inside a function body: local
	case *ast.KeyValueExpr, *ast.CompositeLit, *ast.SendStmt:
		report(lit.Pos(), "function literal stored outside a local variable allocates its closure")
	}
}

// capGuardRanges returns the position ranges of if-bodies (and else
// branches) whose condition reads cap(...): the growth arms of the
// reuse helpers, exempt from noalloc.
func capGuardRanges(body *ast.BlockStmt, ti *types.Info) [][2]token.Pos {
	var ranges [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !mentionsCap(ifs.Cond, ti) {
			return true
		}
		ranges = append(ranges, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
		if ifs.Else != nil {
			ranges = append(ranges, [2]token.Pos{ifs.Else.Pos(), ifs.Else.End()})
		}
		return true
	})
	return ranges
}

func mentionsCap(cond ast.Expr, ti *types.Info) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := ti.Uses[id].(*types.Builtin); ok && b.Name() == "cap" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// parentMap records each node's syntactic parent within root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isMapIndex(ti *types.Info, idx *ast.IndexExpr) bool {
	t := ti.Types[idx.X].Type
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// boxesInterface reports whether assigning a value of type src to a
// destination of type dst converts a concrete non-pointer value into
// an interface, which heap-allocates the boxed copy.
func boxesInterface(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	if _, ok := src.Underlying().(*types.Interface); ok {
		return false // interface-to-interface: no new box
	}
	if b, ok := src.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	switch src.Underlying().(type) {
	case *types.Pointer, *types.Signature, *types.Chan, *types.Map:
		return false // pointer-shaped: fits in the interface word
	}
	return true
}
