// Package hotpath implements the bmlint analyzer that structurally guards
// the simulator's zero-allocation hot paths. At run time the allocation
// pins in internal/bench (testing.AllocsPerRun, exact counts) enforce
// them; this analyzer enforces them at vet time.
//
// Roots are function declarations annotated //bmlint:hotpath. The
// analyzer computes the set of functions statically reachable from the
// roots through same-package calls (cross-package hot callees carry their
// own annotation in their own package; calls through interfaces cannot be
// resolved statically and are out of scope) and flags constructs that
// allocate on every execution:
//
//   - calls into fmt, log and errors (formatting and boxing)
//   - make, new, &T{...}, and slice/map composite literals
//   - append onto a function-local slice (a fresh backing array per call;
//     appending to receiver- or caller-owned reuse buffers is allowed —
//     that is exactly the cache-owned scratch-buffer pattern)
//   - closures that capture enclosing variables
//   - boxing a non-pointer value into an interface
//   - string concatenation and string<->[]byte conversions
//
// Constructs feeding a panic call are exempt: assertion failures are
// allowed to allocate while dying. //bmlint:allow alloc on the offending
// line suppresses a finding (use sparingly, with a justification in the
// comment).
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"bimodal/internal/analysis"
)

// Analyzer is the hot-path allocation checker.
var Analyzer = &analysis.Analyzer{
	Name: "bmhotpath",
	Doc: "flag allocating constructs in functions reachable from " +
		"//bmlint:hotpath roots",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	// Collect every declared function and its annotation state.
	type declFn struct {
		decl *ast.FuncDecl
		file *ast.File
	}
	decls := map[*types.Func]declFn{}
	var roots []*types.Func
	for _, file := range pass.Files {
		if analysis.TestFile(pass, file) {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[obj] = declFn{fd, file}
			if analysis.FuncAnnotated(pass, file, fd, analysis.AnnotHotpath) {
				roots = append(roots, obj)
			}
		}
	}
	if len(roots) == 0 {
		return nil, nil
	}

	// Breadth-first closure over same-package static calls. rootOf
	// remembers which annotated root first reached each function, for
	// diagnostics.
	rootOf := map[*types.Func]*types.Func{}
	queue := make([]*types.Func, 0, len(roots))
	for _, r := range roots {
		rootOf[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		d := decls[fn]
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass, call)
			if callee == nil || callee.Pkg() != pass.Pkg {
				return true
			}
			if _, declared := decls[callee]; !declared {
				return true
			}
			if _, seen := rootOf[callee]; !seen {
				rootOf[callee] = rootOf[fn]
				queue = append(queue, callee)
			}
			return true
		})
	}

	for fn, root := range rootOf {
		d := decls[fn]
		checkFunc(pass, d.file, d.decl, root)
	}
	return nil, nil
}

// checkFunc walks one reachable function body and reports allocating
// constructs.
func checkFunc(pass *analysis.Pass, file *ast.File, decl *ast.FuncDecl, root *types.Func) {
	panicArgs := panicArgRanges(pass, decl.Body)
	owned := ownedSlices(pass, decl)
	where := ""
	if root.Name() != decl.Name.Name {
		where = " (hot path: reachable from " + root.Name() + ")"
	} else {
		where = " (hot path root)"
	}

	report := func(pos token.Pos, format string, args ...interface{}) {
		if analysis.Allowed(pass, file, pos, "alloc") {
			return
		}
		for _, r := range panicArgs {
			if r.start <= pos && pos <= r.end {
				return // allocating while panicking is fine
			}
		}
		args = append(args, where)
		pass.Reportf(pos, format+"%s", args...)
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCallAlloc(pass, n, owned, report)
			checkArgBoxing(pass, n, report)
		case *ast.FuncLit:
			if captured := capturedVar(pass, decl, n); captured != nil {
				report(n.Pos(), "closure capturing %q allocates", captured.Name())
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			switch pass.TypesInfo.Types[n].Type.Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal allocates a fresh backing array")
			case *types.Map:
				report(n.Pos(), "map literal allocates")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(pass, n) {
				report(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			checkAssignBoxing(pass, n, report)
		case *ast.ReturnStmt:
			checkReturnBoxing(pass, decl, n, report)
		case *ast.GoStmt:
			report(n.Pos(), "goroutine launch on the hot path")
		case *ast.DeferStmt:
			// defer with a closure allocates; defer of a method value
			// allocates too. Plain func calls are cheap but still reserve
			// a defer record — keep hot paths defer-free.
			report(n.Pos(), "defer on the hot path")
		}
		return true
	})
}

// checkCallAlloc flags allocating calls: fmt/log/errors, make/new, and
// append onto function-local slices.
func checkCallAlloc(pass *analysis.Pass, call *ast.CallExpr, owned map[*types.Var]bool,
	report func(token.Pos, string, ...interface{})) {
	if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt", "log", "errors":
			report(call.Pos(), "%s.%s allocates", fn.Pkg().Name(), fn.Name())
		}
		return
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	if !ok {
		return
	}
	switch b.Name() {
	case "make":
		report(call.Pos(), "make allocates")
	case "new":
		report(call.Pos(), "new allocates")
	case "append":
		if len(call.Args) == 0 {
			return
		}
		root := rootIdent(call.Args[0])
		if root == nil {
			report(call.Pos(), "append to a non-addressable slice allocates")
			return
		}
		v, ok := pass.TypesInfo.Uses[root].(*types.Var)
		if !ok {
			return // package-level var: caller-owned
		}
		if v.IsField() || owned[v] {
			return // receiver/caller-owned reuse buffer
		}
		report(call.Pos(), "append to function-local slice %q allocates a fresh backing array "+
			"(append only to receiver- or caller-owned buffers)", v.Name())
	}
}

// ownedSlices computes the set of local variables that alias receiver-,
// parameter- or package-owned storage, in declaration order: parameters
// and the receiver seed the set; a local assigned from an owned root (or
// from append/slicing of one) joins it.
func ownedSlices(pass *analysis.Pass, decl *ast.FuncDecl) map[*types.Var]bool {
	owned := map[*types.Var]bool{}
	mark := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
					owned[v] = true
				}
			}
		}
	}
	mark(decl.Recv)
	mark(decl.Type.Params)

	exprOwned := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if call, ok := e.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
					e = call.Args[0]
				}
			}
		}
		root := rootIdent(e)
		if root == nil {
			return false
		}
		switch v := pass.TypesInfo.Uses[root].(type) {
		case *types.Var:
			return v.IsField() || owned[v] || v.Parent() == pass.Pkg.Scope()
		}
		// Defs (":=" targets) are not uses; selectors rooted at the
		// receiver resolve through Uses above.
		return false
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			var v *types.Var
			if d, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
				v = d
			} else if u, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
				v = u
			}
			if v == nil {
				continue
			}
			if exprOwned(as.Rhs[i]) {
				owned[v] = true
			}
		}
		return true
	})
	return owned
}

// capturedVar returns a variable from the enclosing function captured by
// the literal, or nil.
func capturedVar(pass *analysis.Pass, decl *ast.FuncDecl, lit *ast.FuncLit) *types.Var {
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured iff declared inside the enclosing function but outside
		// the literal.
		if v.Pos() >= decl.Pos() && v.Pos() <= decl.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() <= lit.End()) {
			captured = v
		}
		return true
	})
	return captured
}

// checkArgBoxing flags call arguments whose concrete non-pointer value is
// boxed into an interface parameter.
func checkArgBoxing(pass *analysis.Pass, call *ast.CallExpr,
	report func(token.Pos, string, ...interface{})) {
	if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt", "log", "errors":
			return // the call itself is already flagged
		}
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Explicit conversion: T(x) boxes when T is an interface.
		if len(call.Args) == 1 {
			reportBoxing(pass, call.Args[0], tv.Type, report)
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic():
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt == nil {
			continue
		}
		reportBoxing(pass, arg, pt, report)
	}
}

// checkAssignBoxing flags assignments that box a concrete non-pointer
// value into an interface-typed destination.
func checkAssignBoxing(pass *analysis.Pass, as *ast.AssignStmt,
	report func(token.Pos, string, ...interface{})) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt, ok := pass.TypesInfo.Types[as.Lhs[i]]
		if !ok {
			if id, isIdent := as.Lhs[i].(*ast.Ident); isIdent {
				if v, isVar := pass.TypesInfo.Defs[id].(*types.Var); isVar {
					reportBoxing(pass, as.Rhs[i], v.Type(), report)
				}
			}
			continue
		}
		reportBoxing(pass, as.Rhs[i], lt.Type, report)
	}
}

// checkReturnBoxing flags returns that box a concrete value into an
// interface result.
func checkReturnBoxing(pass *analysis.Pass, decl *ast.FuncDecl, ret *ast.ReturnStmt,
	report func(token.Pos, string, ...interface{})) {
	results := decl.Type.Results
	if results == nil || len(ret.Results) == 0 {
		return
	}
	var resultTypes []types.Type
	for _, f := range results.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		t := pass.TypesInfo.Types[f.Type].Type
		for j := 0; j < n; j++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(ret.Results) != len(resultTypes) {
		return // single call spread across results: types already interface-checked
	}
	for i, r := range ret.Results {
		reportBoxing(pass, r, resultTypes[i], report)
	}
}

// reportBoxing reports when expr (a concrete, non-pointer-shaped value)
// is converted to the interface type dst.
func reportBoxing(pass *analysis.Pass, expr ast.Expr, dst types.Type,
	report func(token.Pos, string, ...interface{})) {
	if dst == nil {
		return
	}
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return
	}
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	src := tv.Type
	if tv.IsNil() {
		return
	}
	if _, isIface := src.Underlying().(*types.Interface); isIface {
		return // interface-to-interface: no boxing
	}
	if pointerShaped(src) {
		return // stored directly in the interface word
	}
	report(expr.Pos(), "boxing %s into %s allocates", src, dst)
}

// pointerShaped reports whether values of t fit in an interface's data
// word without allocating.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

// isNonConstString reports whether the binary expression is a string
// concatenation not folded at compile time.
func isNonConstString(pass *analysis.Pass, e *ast.BinaryExpr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return false
	}
	return tv.Value == nil // constant-folded concatenations carry a value
}

// panicArgRange marks the source extent of a panic call's arguments.
type panicArgRange struct{ start, end token.Pos }

// panicArgRanges collects the argument extents of every panic call so
// alloc findings inside them can be suppressed.
func panicArgRanges(pass *analysis.Pass, body *ast.BlockStmt) []panicArgRange {
	var out []panicArgRange
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" && len(call.Args) > 0 {
			out = append(out, panicArgRange{call.Args[0].Pos(), call.Args[len(call.Args)-1].End()})
		}
		return true
	})
	return out
}

// rootIdent unwraps selectors, indexing, slicing and parens down to the
// base identifier, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// calleeFunc resolves the statically-called function, or nil.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}
