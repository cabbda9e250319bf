package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolEscapeAnalyzer protects the hot path's 0 allocs/op contract: a value
// drawn from a sync.Pool (directly via pool.Get(), through an accessor like
// getScratch, or received as a parameter of a pooled type) must stay
// confined to the call tree between Get and Put. The analyzer reports, per
// function:
//
//   - stores of pool-derived values into package-level variables,
//   - stores into fields of objects that are not themselves pool-derived
//     (writing into the pooled struct's own fields is fine),
//   - stores into elements of non-pool-derived slices/maps,
//   - sends of pool-derived values on channels,
//   - returns of pool-derived values from *exported* functions or methods —
//     pooled scratch must never cross the package's public API. Unexported
//     helpers may hand pooled state to their in-package callers (that is the
//     accessor pattern; the caller still owns the Put).
//
// Taint is tracked per function through assignments, field/index/slice
// projections, type assertions, and method calls on pool-derived receivers
// that return reference types — and, over the call graph, through one
// level of resolved intra-module calls: arguments that are pool-derived
// at any call site taint the callee's parameters, so helpers that receive
// pooled scratch positionally (not by pooled type) are checked too.
var PoolEscapeAnalyzer = &Analyzer{
	Name:      "poolescape",
	Doc:       "sync.Pool values must not escape via globals, foreign fields, channels, or exported returns",
	RunModule: runPoolEscape,
}

// poolWorld is the module-wide pool fact base: every sync.Pool variable,
// every pooled element type name, and every accessor function.
type poolWorld struct {
	prog        *Program
	poolVars    map[types.Object]bool
	pooledTypes map[string]bool
	accessors   map[types.Object]bool
	// paramSeeds, during the interprocedural phase, holds the parameters
	// seeded from call sites: returning a value rooted at such a parameter
	// is the append pattern (the caller handed the buffer in and gets it
	// back), not an escape.
	paramSeeds map[types.Object]bool
}

func runPoolEscape(mp *ModulePass) {
	w := buildPoolWorld(mp.Prog)
	if len(w.poolVars) == 0 {
		return
	}

	// Phase A: per-function taint and sinks, collecting the callee
	// parameters that receive pool-derived arguments at resolved call sites.
	seeds := map[*FuncInfo]map[types.Object]bool{}
	reported := map[string]bool{}
	funcs := mp.Prog.sortedFuncs()
	for _, fi := range funcs {
		if fi.Decl.Body == nil {
			continue
		}
		tainted := w.taint(fi, nil)
		w.sinks(mp, fi, tainted, reported, "")
		w.seedCallees(fi, tainted, seeds)
	}

	// Phase B: one level of interprocedural propagation — re-analyze the
	// functions whose parameters were seeded and report only new sinks.
	for _, fi := range funcs {
		s := seeds[fi]
		if len(s) == 0 || fi.Decl.Body == nil {
			continue
		}
		tainted := w.taint(fi, s)
		w.paramSeeds = s
		w.sinks(mp, fi, tainted, reported, " (pool-derived in a caller)")
		w.paramSeeds = nil
	}
}

func buildPoolWorld(prog *Program) *poolWorld {
	w := &poolWorld{
		prog:        prog,
		poolVars:    map[types.Object]bool{},
		pooledTypes: map[string]bool{},
		accessors:   map[types.Object]bool{},
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			imports := importMap(f)
			ast.Inspect(f, func(n ast.Node) bool {
				vs, ok := n.(*ast.ValueSpec)
				if !ok {
					return true
				}
				if vs.Type != nil {
					// Plain pools (var p sync.Pool) and size-class pool
					// arrays (var pools [N]sync.Pool) both count: the
					// server's wire buffers draw from indexed pools.
					t := vs.Type
					if at, ok := t.(*ast.ArrayType); ok {
						t = at.Elt
					}
					if name, ok := isPkgSelector(t, imports, "sync"); ok && name == "Pool" {
						w.markPoolVars(pkg, vs)
					}
				}
				for _, v := range vs.Values {
					if cl, ok := v.(*ast.CompositeLit); ok {
						clType := cl.Type
						if at, ok := clType.(*ast.ArrayType); ok {
							clType = at.Elt
						}
						if name, ok := isPkgSelector(clType, imports, "sync"); ok && name == "Pool" {
							w.markPoolVars(pkg, vs)
							collectNewTypes(cl, w.pooledTypes)
							// An array literal's elements are the per-class
							// pools; harvest their New types too.
							for _, elt := range cl.Elts {
								if inner, ok := elt.(*ast.CompositeLit); ok {
									collectNewTypes(inner, w.pooledTypes)
								}
							}
						}
					}
				}
				return true
			})
		}
	}
	if len(w.poolVars) == 0 {
		return w
	}
	// Get() assertions anywhere in the module name the pooled types too.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ta, ok := n.(*ast.TypeAssertExpr)
				if !ok || ta.Type == nil {
					return true
				}
				if w.isPoolGet(pkg, ta.X, false) {
					addTypeName(ta.Type, w.pooledTypes)
				}
				return true
			})
		}
	}
	// Accessor functions: helpers that return a pool.Get() result, either
	// directly in the return statement or through a local the Get was
	// assigned to (the get-reset-return pattern).
	for _, fi := range prog.Funcs {
		if fi.Decl.Body != nil && w.returnsPoolGet(fi.Pkg, fi.Decl.Body) {
			w.accessors[fi.Obj] = true
		}
	}
	return w
}

// markPoolVars records the declared names of a sync.Pool value spec.
func (w *poolWorld) markPoolVars(pkg *Package, vs *ast.ValueSpec) {
	for _, name := range vs.Names {
		if obj := pkg.Info.Defs[name]; obj != nil {
			w.poolVars[obj] = true
		}
	}
}

// collectNewTypes extracts the pooled element type from a sync.Pool
// composite literal's New function: `New: func() any { return new(T) }` or
// `return &T{}`.
func collectNewTypes(cl *ast.CompositeLit, pooledTypes map[string]bool) {
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "New" {
			continue
		}
		fl, ok := kv.Value.(*ast.FuncLit)
		if !ok {
			continue
		}
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "new" && len(x.Args) == 1 {
					addTypeName(x.Args[0], pooledTypes)
				}
			case *ast.UnaryExpr:
				if x.Op.String() == "&" {
					if lit, ok := x.X.(*ast.CompositeLit); ok {
						addTypeName(lit.Type, pooledTypes)
					}
				}
			}
			return true
		})
	}
}

// addTypeName records the base named type of a type expression ("*T" -> T).
func addTypeName(t ast.Expr, pooledTypes map[string]bool) {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			pooledTypes[x.Name] = true
			return
		case *ast.SelectorExpr:
			pooledTypes[x.Sel.Name] = true
			return
		default:
			return
		}
	}
}

// isPoolGet reports whether e is a call of Get on a known pool variable,
// optionally through parens/type assertions. With accessors set, calls to
// accessor functions count too.
func (w *poolWorld) isPoolGet(pkg *Package, e ast.Expr, accessors bool) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return w.isPoolGet(pkg, x.X, accessors)
	case *ast.TypeAssertExpr:
		return w.isPoolGet(pkg, x.X, accessors)
	case *ast.CallExpr:
		switch fn := x.Fun.(type) {
		case *ast.SelectorExpr:
			if fn.Sel.Name != "Get" {
				return false
			}
			recv := unparen(fn.X)
			// Indexed receivers (wireBufPools[c].Get()) resolve to the
			// underlying pool-array variable.
			if ix, ok := recv.(*ast.IndexExpr); ok {
				recv = unparen(ix.X)
			}
			if id, ok := recv.(*ast.Ident); ok {
				return w.poolVars[objOf(pkg.Info, id)]
			}
		case *ast.Ident:
			if accessors {
				return w.accessors[objOf(pkg.Info, fn)]
			}
		}
	}
	return false
}

// returnsPoolGet reports whether a function body returns a pool Get result:
// directly, or via a local previously assigned from one.
func (w *poolWorld) returnsPoolGet(pkg *Package, body *ast.BlockStmt) bool {
	fromGet := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for k := range st.Lhs {
				if k >= len(st.Rhs) || !w.isPoolGet(pkg, st.Rhs[k], false) {
					continue
				}
				if id, ok := st.Lhs[k].(*ast.Ident); ok {
					if obj := objOf(pkg.Info, id); obj != nil {
						fromGet[obj] = true
					}
				}
			}
		case *ast.ValueSpec:
			for k, v := range st.Values {
				if k < len(st.Names) && w.isPoolGet(pkg, v, false) {
					if obj := pkg.Info.Defs[st.Names[k]]; obj != nil {
						fromGet[obj] = true
					}
				}
			}
		}
		return true
	})
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, res := range ret.Results {
				if w.isPoolGet(pkg, res, false) {
					found = true
				}
				if id, ok := unparen(res).(*ast.Ident); ok && fromGet[objOf(pkg.Info, id)] {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// taint runs the per-function taint pass: type-based seeds (receiver and
// parameters of pooled types) plus the extra interprocedural seeds, then
// assignment propagation until stable.
func (w *poolWorld) taint(fi *FuncInfo, extra map[types.Object]bool) map[types.Object]bool {
	pkg := fi.Pkg
	fd := fi.Decl
	tainted := map[types.Object]bool{}
	for obj := range extra {
		tainted[obj] = true
	}
	seedFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if !isPooledTypeExpr(field.Type, w.pooledTypes) {
				continue
			}
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					tainted[obj] = true
				}
			}
		}
	}
	seedFields(fd.Recv)
	seedFields(fd.Type.Params)

	// Propagate taint through assignments until stable (two passes cover
	// the straight-line and single-back-edge cases that occur in practice).
	for i := 0; i < 2; i++ {
		changed := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) == len(st.Rhs) {
					for k := range st.Lhs {
						if !w.taintedExpr(pkg, st.Rhs[k], tainted) {
							continue
						}
						if id, ok := st.Lhs[k].(*ast.Ident); ok {
							if obj := objOf(pkg.Info, id); obj != nil && !tainted[obj] {
								tainted[obj] = true
								changed = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				for k, v := range st.Values {
					if k < len(st.Names) && w.taintedExpr(pkg, v, tainted) {
						if obj := pkg.Info.Defs[st.Names[k]]; obj != nil && !tainted[obj] {
							tainted[obj] = true
							changed = true
						}
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return tainted
}

// sinks reports escapes for one function. note is appended to messages from
// the interprocedural phase; reported dedups across phases.
func (w *poolWorld) sinks(mp *ModulePass, fi *FuncInfo, tainted map[types.Object]bool, reported map[string]bool, note string) {
	pkg := fi.Pkg
	fd := fi.Decl
	exported := fd.Name.IsExported()
	report := func(pos token.Pos, msg string) {
		key := w.prog.Fset.Position(pos).String() + "|" + msg
		if reported[key] {
			return
		}
		// A phase-B repeat of a phase-A finding differs only by note; dedup
		// on the note-free key as well.
		if note != "" {
			base := key[:len(key)-len(note)]
			if reported[base] {
				return
			}
			reported[base] = true
		}
		reported[key] = true
		mp.Reportf(pos, "%s", msg)
	}

	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			max := len(st.Rhs)
			for k, lhs := range st.Lhs {
				if k >= max || !w.taintedExpr(pkg, st.Rhs[k], tainted) {
					continue
				}
				switch l := lhs.(type) {
				case *ast.Ident:
					if obj := objOf(pkg.Info, l); obj != nil && isPackageLevel(pkg, obj) {
						report(st.Pos(), "pool-derived value "+exprString(st.Rhs[k])+" stored in package-level variable "+l.Name+"; it escapes the Get/Put window"+note)
					}
				case *ast.SelectorExpr:
					if base := rootIdent(l.X); base == nil || !tainted[objOf(pkg.Info, base)] {
						report(st.Pos(), "pool-derived value "+exprString(st.Rhs[k])+" stored in field "+exprString(l)+" of a non-pooled object; it escapes the Get/Put window"+note)
					}
				case *ast.IndexExpr:
					if base := rootIdent(l.X); base == nil || !tainted[objOf(pkg.Info, base)] {
						report(st.Pos(), "pool-derived value "+exprString(st.Rhs[k])+" stored in element of non-pooled container "+exprString(l.X)+"; it escapes the Get/Put window"+note)
					}
				}
			}
		case *ast.SendStmt:
			if w.taintedExpr(pkg, st.Value, tainted) {
				report(st.Pos(), "pool-derived value "+exprString(st.Value)+" sent on a channel; it escapes the Get/Put window"+note)
			}
		case *ast.ReturnStmt:
			if !exported || insideFuncLit(stack) {
				return true
			}
			for _, res := range st.Results {
				if w.isPoolGet(pkg, res, true) {
					continue // direct accessor hand-off
				}
				if root := rootIdent(res); root != nil && w.paramSeeds[objOf(pkg.Info, root)] {
					continue // caller's own buffer handed back (append pattern)
				}
				if w.taintedExpr(pkg, res, tainted) {
					report(st.Pos(), "pool-derived value "+exprString(res)+" returned from exported "+fd.Name.Name+"; pooled scratch must not cross the package API"+note)
				}
			}
		}
		return true
	})
}

// seedCallees records, for every resolved call with a pool-derived argument
// or receiver, the callee's corresponding parameter/receiver objects.
func (w *poolWorld) seedCallees(fi *FuncInfo, tainted map[types.Object]bool, seeds map[*FuncInfo]map[types.Object]bool) {
	pkg := fi.Pkg
	add := func(callee *FuncInfo, obj types.Object) {
		if obj == nil {
			return
		}
		m := seeds[callee]
		if m == nil {
			m = map[types.Object]bool{}
			seeds[callee] = m
		}
		m[obj] = true
	}
	for _, cs := range fi.Calls {
		callee := cs.Callee
		if callee == nil || callee.Decl.Body == nil {
			continue
		}
		params := flattenParams(callee.Pkg, callee.Decl.Type.Params)
		for k, arg := range cs.Call.Args {
			if !w.taintedExpr(pkg, arg, tainted) {
				continue
			}
			idx := k
			if idx >= len(params) {
				idx = len(params) - 1 // variadic tail
			}
			if idx >= 0 {
				add(callee, params[idx])
			}
		}
		if sel, ok := unparen(cs.Call.Fun).(*ast.SelectorExpr); ok && callee.Decl.Recv != nil {
			if w.taintedExpr(pkg, sel.X, tainted) {
				recv := flattenParams(callee.Pkg, callee.Decl.Recv)
				if len(recv) == 1 {
					add(callee, recv[0])
				}
			}
		}
	}
}

// flattenParams returns the declared parameter objects of a field list in
// positional order (unnamed parameters yield nil slots).
func flattenParams(pkg *Package, fl *ast.FieldList) []types.Object {
	if fl == nil {
		return nil
	}
	var out []types.Object
	for _, field := range fl.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			out = append(out, pkg.Info.Defs[name])
		}
	}
	return out
}

// taintedExpr reports whether e evaluates to a pool-derived value given the
// current tainted-variable set.
func (w *poolWorld) taintedExpr(pkg *Package, e ast.Expr, tainted map[types.Object]bool) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return tainted[objOf(pkg.Info, x)]
	case *ast.ParenExpr:
		return w.taintedExpr(pkg, x.X, tainted)
	case *ast.SelectorExpr:
		return w.taintedExpr(pkg, x.X, tainted)
	case *ast.IndexExpr:
		return w.taintedExpr(pkg, x.X, tainted)
	case *ast.SliceExpr:
		return w.taintedExpr(pkg, x.X, tainted)
	case *ast.StarExpr:
		return w.taintedExpr(pkg, x.X, tainted)
	case *ast.UnaryExpr:
		return w.taintedExpr(pkg, x.X, tainted)
	case *ast.TypeAssertExpr:
		return w.taintedExpr(pkg, x.X, tainted)
	case *ast.CallExpr:
		if w.isPoolGet(pkg, e, true) {
			return true
		}
		// A method call on a pool-derived receiver returning a reference
		// type propagates taint (sc.heap(i, k) hands out pooled storage).
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			if w.taintedExpr(pkg, sel.X, tainted) {
				return referenceResult(pkg, x)
			}
		}
	}
	return false
}

// referenceResult reports whether a call's result can alias pooled memory:
// pointers, slices, maps, channels, interfaces, or unknown (stub-degraded)
// types. Value results (int, bool, float, string, plain structs) cannot.
func referenceResult(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return true // unknown: stay conservative
	}
	switch t := tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Basic:
		return t.Kind() == types.Invalid
	default:
		return false
	}
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(pkg *Package, obj types.Object) bool {
	return pkg.Types != nil && obj.Parent() == pkg.Types.Scope()
}

// isPooledTypeExpr reports whether a parameter type expression names a
// pooled type (T or *T).
func isPooledTypeExpr(t ast.Expr, pooledTypes map[string]bool) bool {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return pooledTypes[x.Name]
		case *ast.SelectorExpr:
			return pooledTypes[x.Sel.Name]
		default:
			return false
		}
	}
}

// insideFuncLit reports whether the innermost enclosing function of the
// current node is a function literal (whose returns are not the outer
// function's returns).
func insideFuncLit(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncLit:
			return true
		case *ast.FuncDecl:
			return false
		}
	}
	return false
}
