package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// The interprocedural layer. A Program is the module-wide view the
// compositional analyzers (noalloc, poolescape) share: every function
// declaration, a static call graph over them, and the //ferret:noalloc
// annotation set. It is built once per Run from the loader's packages.
//
// Call-graph construction is static: direct calls and method calls resolve
// through go/types wherever the callee is a module function (module-internal
// packages are really type-checked, so cross-package identity is precise).
// Calls that cannot be resolved — standard-library calls (stubbed at load
// time), interface dispatch, and calls through function values — become
// unresolved CallSites carrying whatever syntactic identity is available
// (import path, method name). Each analyzer chooses its own interpretation
// of an unresolved call: noalloc treats it as allocating unless allowlisted,
// poolescape does not follow a pooled value into it (see DESIGN.md §13).

// Program is the module-wide interprocedural fact base.
type Program struct {
	Pkgs []*Package
	Fset *token.FileSet

	// Funcs maps every declared function/method object to its info.
	Funcs map[types.Object]*FuncInfo

	// noallocVars holds package-level function-typed variables annotated
	// //ferret:noalloc: calls through them are trusted allocation-free (the
	// contract every installed implementation, e.g. an asm kernel, obeys).
	noallocVars map[types.Object]bool

	allocFacts map[*FuncInfo]*allocFacts
}

// FuncInfo is one declared function or method.
type FuncInfo struct {
	Obj  types.Object
	Decl *ast.FuncDecl
	Pkg  *Package
	// Noalloc records a //ferret:noalloc annotation on the declaration.
	Noalloc bool
	// Calls lists the call sites in body order (function literals included,
	// attributed to the declaring function).
	Calls []*CallSite
}

// Name renders the function for diagnostics: "(*Engine).filter" or "Open".
func (fi *FuncInfo) Name() string {
	fd := fi.Decl
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := types.ExprString(fd.Recv.List[0].Type)
	return "(" + recv + ")." + fd.Name.Name
}

// CallSite is one static call expression inside a function.
type CallSite struct {
	Call *ast.CallExpr
	// Callee is the resolved module function, or nil.
	Callee *FuncInfo
	// ExtPath is the callee's import path when the call is pkg.Fn into a
	// non-module (stubbed) package.
	ExtPath string
	// Name is the called identifier or selector name, for allowlists and
	// diagnostics.
	Name string
	// Method is set for x.M(...) calls that did not resolve to a module
	// function and are not pkg.Fn selectors (interface or stub-typed
	// receivers).
	Method bool
	// FuncValue is set for calls through an identifier that names no
	// function declaration (function-typed variables, parameters).
	FuncValue bool
	Pos       token.Pos
}

const noallocDirective = "//ferret:noalloc"

// NewProgram builds the interprocedural fact base over the loaded packages.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:        pkgs,
		Funcs:       map[types.Object]*FuncInfo{},
		noallocVars: map[types.Object]bool{},
		allocFacts:  map[*FuncInfo]*allocFacts{},
	}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		prog.collectDecls(pkg)
	}
	for _, fi := range prog.Funcs {
		prog.resolveCalls(fi)
	}
	return prog
}

// collectDecls registers the package's functions and noalloc annotations.
func (prog *Program) collectDecls(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := pkg.Info.Defs[d.Name]
				if obj == nil {
					continue
				}
				prog.Funcs[obj] = &FuncInfo{Obj: obj, Decl: d, Pkg: pkg, Noalloc: hasNoallocDirective(d.Doc)}
			case *ast.GenDecl:
				prog.collectNoallocVars(pkg, d)
			}
		}
	}
}

// collectNoallocVars registers the //ferret:noalloc function variables of
// one declaration.
func (prog *Program) collectNoallocVars(pkg *Package, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		s, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if d.Tok.String() == "var" && hasNoallocDirective(d.Doc) || hasNoallocDirective(s.Doc) {
			for _, name := range s.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					prog.noallocVars[obj] = true
				}
			}
		}
	}
}

// hasNoallocDirective reports a //ferret:noalloc line in a doc comment.
func hasNoallocDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == noallocDirective || strings.HasPrefix(text, noallocDirective+" ") {
			return true
		}
	}
	return false
}

// resolveCalls populates fi.Calls with every call expression in the body.
func (prog *Program) resolveCalls(fi *FuncInfo) {
	if fi.Decl.Body == nil {
		return
	}
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		cs := &CallSite{Call: call, Pos: call.Pos()}
		switch fun := unparen(call.Fun).(type) {
		case *ast.Ident:
			cs.Name = fun.Name
			obj := objOf(info, fun)
			switch o := obj.(type) {
			case *types.Builtin:
				return true // builtins are classified by the analyzers
			case *types.TypeName:
				return true // conversion, not a call
			case *types.Func:
				if callee, ok := prog.Funcs[o]; ok {
					cs.Callee = callee
					break
				}
				cs.FuncValue = true
			case nil:
				// Unresolved identifier: could be a builtin the stub world
				// lost, or a dot-imported name. Builtin names stay builtin.
				if isBuiltinName(fun.Name) {
					return true
				}
				cs.FuncValue = true
			default:
				if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
					return true
				}
				cs.FuncValue = true // variable or parameter of func type
			}
		case *ast.SelectorExpr:
			cs.Name = fun.Sel.Name
			if id, ok := fun.X.(*ast.Ident); ok {
				if pn, ok := objOf(info, id).(*types.PkgName); ok {
					path := pn.Imported().Path()
					if o, ok := objOf(info, fun.Sel).(*types.Func); ok {
						if callee, ok := prog.Funcs[o]; ok {
							cs.Callee = callee
							fi.Calls = append(fi.Calls, cs)
							return true
						}
					}
					cs.ExtPath = path
					fi.Calls = append(fi.Calls, cs)
					return true
				}
			}
			// Method call (or qualified func value). Resolve through Uses.
			if o, ok := objOf(info, fun.Sel).(*types.Func); ok {
				if callee, ok := prog.Funcs[o]; ok {
					cs.Callee = callee
					break
				}
			}
			cs.Method = true
		case *ast.FuncLit:
			return true // immediately-invoked literal: body walked anyway
		default:
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
				return true // conversion through a composite type expr
			}
			cs.Name = exprString(call.Fun)
			cs.FuncValue = true
		}
		fi.Calls = append(fi.Calls, cs)
		return true
	})
}

// callSiteOf finds the CallSite record for a call expression, if any.
func (fi *FuncInfo) callSiteOf(call *ast.CallExpr) *CallSite {
	for _, cs := range fi.Calls {
		if cs.Call == call {
			return cs
		}
	}
	return nil
}

func isBuiltinName(name string) bool {
	switch name {
	case "append", "cap", "clear", "close", "complex", "copy", "delete",
		"imag", "len", "make", "max", "min", "new", "panic", "print",
		"println", "real", "recover":
		return true
	}
	return false
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// sortedFuncs returns every module function in deterministic source order.
func (prog *Program) sortedFuncs() []*FuncInfo {
	out := make([]*FuncInfo, 0, len(prog.Funcs))
	for _, fi := range prog.Funcs {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// shortPos renders a position as "file.go:12" for witness strings.
func (prog *Program) shortPos(pos token.Pos) string {
	p := prog.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
