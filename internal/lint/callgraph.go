package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The interprocedural layer. A Program is the module-wide view the
// compositional analyzers (lockorder, lockpath, noalloc, poolescape) share:
// every function declaration, a static call graph over them, the module's
// mutex classes, and the //ferret:noalloc annotation set. It is built once
// per Run from the loader's packages and feeds the per-function summary
// framework in summary.go.
//
// Call-graph construction is static: direct calls and method calls resolve
// through go/types wherever the callee is a module function (module-internal
// packages are really type-checked, so cross-package identity is precise).
// Calls that cannot be resolved — standard-library calls (stubbed at load
// time), interface dispatch, and calls through function values — become
// unresolved CallSites carrying whatever syntactic identity is available
// (import path, method name). Each analyzer chooses its own conservative
// interpretation of an unresolved call: noalloc treats it as allocating
// unless allowlisted, the lock analyses treat it as lock-neutral
// (under-approximate; see DESIGN.md §13 for the soundness caveats).

// Program is the module-wide interprocedural fact base.
type Program struct {
	Pkgs []*Package
	Fset *token.FileSet

	// Funcs maps every declared function/method object to its info.
	Funcs map[types.Object]*FuncInfo
	// funcsByName indexes functions by bare name, for diagnostics only.
	funcsByName map[string][]*FuncInfo

	// mutexFields maps a named struct type's object to its mutex-typed
	// fields: field name -> lock class. Embedded sync.Mutex/sync.RWMutex
	// register under their type name ("Mutex", "RWMutex").
	mutexFields map[types.Object]map[string]lockClass
	// mutexVars maps mutex-typed variable objects (package-level or local)
	// to their lock class.
	mutexVars map[types.Object]lockClass

	// noallocVars holds package-level function-typed variables annotated
	// //ferret:noalloc: calls through them are trusted allocation-free (the
	// contract every installed implementation, e.g. an asm kernel, obeys).
	noallocVars map[types.Object]bool

	lockFacts  map[*FuncInfo]*lockFacts
	allocFacts map[*FuncInfo]*allocFacts
	transAcq   map[*FuncInfo]map[LockID]acqWitness

	lockEdges      []*LockEdge // lazily built global acquisition graph
	lockGraphDiags []lockDiag
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

// lockClass identifies one mutex "class": all instances of a struct field
// (or one variable) share the class — the standard class-based abstraction
// for lock-order analysis.
type lockClass struct {
	ID LockID
	RW bool // sync.RWMutex (has RLock/RUnlock)
}

// LockID names a lock class: "internal/core.Engine.mu" for fields,
// "internal/server.var shutdownMu" for variables.
type LockID string

const noallocDirective = "//ferret:noalloc"

// NewProgram builds the interprocedural fact base over the loaded packages.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:        pkgs,
		Funcs:       map[types.Object]*FuncInfo{},
		funcsByName: map[string][]*FuncInfo{},
		mutexFields: map[types.Object]map[string]lockClass{},
		mutexVars:   map[types.Object]lockClass{},
		noallocVars: map[types.Object]bool{},
		lockFacts:   map[*FuncInfo]*lockFacts{},
		allocFacts:  map[*FuncInfo]*allocFacts{},
		transAcq:    map[*FuncInfo]map[LockID]acqWitness{},
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

// collectDecls registers the package's functions, mutex classes and noalloc
// annotations.
func (prog *Program) collectDecls(pkg *Package) {
	for _, f := range pkg.Files {
		imports := importMap(f)
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := pkg.Info.Defs[d.Name]
				if obj == nil {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: d, Pkg: pkg, Noalloc: hasNoallocDirective(d.Doc)}
				prog.Funcs[obj] = fi
				prog.funcsByName[d.Name.Name] = append(prog.funcsByName[d.Name.Name], fi)
			case *ast.GenDecl:
				prog.collectGenDecl(pkg, d, imports)
			}
		}
		// Local mutex variables and noalloc function-variable annotations
		// can appear anywhere; sweep the whole file once.
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			if cls, ok := mutexTypeExpr(vs.Type, imports); ok {
				for _, name := range vs.Names {
					if obj := pkg.Info.Defs[name]; obj != nil {
						cls.ID = LockID(pkg.RelPath + ".var " + name.Name)
						prog.mutexVars[obj] = cls
					}
				}
			}
			return true
		})
	}
}

// collectGenDecl registers struct mutex fields, package-level mutex vars and
// //ferret:noalloc function variables from one declaration.
func (prog *Program) collectGenDecl(pkg *Package, d *ast.GenDecl, imports map[string]string) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			st, ok := s.Type.(*ast.StructType)
			if !ok {
				continue
			}
			typeObj := pkg.Info.Defs[s.Name]
			if typeObj == nil {
				continue
			}
			for _, field := range st.Fields.List {
				cls, ok := mutexTypeExpr(field.Type, imports)
				if !ok {
					continue
				}
				names := field.Names
				if len(names) == 0 {
					// Embedded mutex: lock calls promote to the struct.
					name := "Mutex"
					if cls.RW {
						name = "RWMutex"
					}
					prog.addMutexField(pkg, typeObj, s.Name.Name, name, cls)
					continue
				}
				for _, name := range names {
					prog.addMutexField(pkg, typeObj, s.Name.Name, name.Name, cls)
				}
			}
		case *ast.ValueSpec:
			if d.Tok.String() == "var" && hasNoallocDirective(d.Doc) || hasNoallocDirective(s.Doc) {
				for _, name := range s.Names {
					if obj := pkg.Info.Defs[name]; obj != nil {
						prog.noallocVars[obj] = true
					}
				}
			}
		}
	}
}

func (prog *Program) addMutexField(pkg *Package, typeObj types.Object, typeName, fieldName string, cls lockClass) {
	m := prog.mutexFields[typeObj]
	if m == nil {
		m = map[string]lockClass{}
		prog.mutexFields[typeObj] = m
	}
	cls.ID = LockID(pkg.RelPath + "." + typeName + "." + fieldName)
	m[fieldName] = cls
}

// mutexTypeExpr reports whether a type expression names sync.Mutex or
// sync.RWMutex (optionally behind a pointer), alias-aware.
func mutexTypeExpr(t ast.Expr, imports map[string]string) (lockClass, bool) {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
			continue
		case *ast.ParenExpr:
			t = x.X
			continue
		}
		break
	}
	if name, ok := isPkgSelector(t, imports, "sync"); ok {
		switch name {
		case "Mutex":
			return lockClass{}, true
		case "RWMutex":
			return lockClass{RW: true}, true
		}
	}
	return lockClass{}, false
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

// lockMethodMode classifies sync lock/unlock method names.
// ok=false for anything else; acquire=false means release.
func lockMethodMode(name string) (mode lockMode, acquire, ok bool) {
	switch name {
	case "Lock":
		return modeW, true, true
	case "Unlock":
		return modeW, false, true
	case "RLock":
		return modeR, true, true
	case "RUnlock":
		return modeR, false, true
	}
	return 0, false, false
}

// lockTargetOf resolves a call expression of the form x.mu.Lock() (or
// mu.Lock(), s.Lock() with an embedded mutex) to its lock class. ok=false
// when the call is not a recognized lock operation on a known mutex class.
func (prog *Program) lockTargetOf(pkg *Package, call *ast.CallExpr) (lockClass, lockMode, bool, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, 0, false, false
	}
	mode, acquire, ok := lockMethodMode(sel.Sel.Name)
	if !ok {
		return lockClass{}, 0, false, false
	}
	base := unparen(sel.X)
	// mu.Lock() on a mutex-typed variable.
	if id, ok := base.(*ast.Ident); ok {
		if cls, ok := prog.mutexVars[objOf(pkg.Info, id)]; ok {
			return cls, mode, acquire, true
		}
	}
	// x.mu.Lock(): the field's parent type carries the class.
	if fsel, ok := base.(*ast.SelectorExpr); ok {
		if cls, ok := prog.fieldClass(pkg, fsel.X, fsel.Sel.Name); ok {
			return cls, mode, acquire, true
		}
		// Package-level var accessed as pkg.mu from a sibling package.
		if o := objOf(pkg.Info, fsel.Sel); o != nil {
			if cls, ok := prog.mutexVars[o]; ok {
				return cls, mode, acquire, true
			}
		}
	}
	// s.Lock() with an embedded mutex.
	name := "Mutex"
	if mode == modeR {
		name = "RWMutex"
	}
	if cls, ok := prog.fieldClass(pkg, base, name); ok {
		return cls, mode, acquire, true
	}
	if cls, ok := prog.fieldClass(pkg, base, "RWMutex"); ok && mode == modeW {
		return cls, mode, acquire, true
	}
	return lockClass{}, 0, false, false
}

// fieldClass resolves expr's static type to a named struct and looks field
// up in the mutex table.
func (prog *Program) fieldClass(pkg *Package, expr ast.Expr, field string) (lockClass, bool) {
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		// An unqualified receiver identifier may resolve through Uses.
		if id, ok := unparen(expr).(*ast.Ident); ok {
			if o := objOf(pkg.Info, id); o != nil && o.Type() != nil {
				return prog.typeFieldClass(o.Type(), field)
			}
		}
		return lockClass{}, false
	}
	return prog.typeFieldClass(tv.Type, field)
}

func (prog *Program) typeFieldClass(t types.Type, field string) (lockClass, bool) {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return lockClass{}, false
	}
	cls, ok := prog.mutexFields[named.Obj()][field]
	return cls, ok
}

// LockEdge is one inferred acquired-before relation: From is held while To
// is acquired. Via describes the witness ("(*Engine).Ingest at core.go:659",
// possibly through a callee chain).
type LockEdge struct {
	From, To         LockID
	FromMode, ToMode lockMode
	Pos              token.Pos
	Via              string
	cycleReported    bool
}

// SortLockEdges orders edges deterministically for dumps and diagnostics.
func SortLockEdges(edges []*LockEdge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		return edges[i].Pos < edges[j].Pos
	})
}
