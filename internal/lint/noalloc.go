package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// NoallocAnalyzer statically enforces the //ferret:noalloc contract: a
// function (or package-level function variable) carrying the directive must
// be allocation-free, transitively through every resolved module call. It
// complements the runtime allocs/op tests — they prove one input shape
// allocation-free, the static check covers every path and localizes the
// offending expression when the contract breaks.
//
// Flagged: make/new, growing append, slice/map composite literals, &T{},
// function literals (closures), go statements, string concatenation and
// string conversions, conversions to interface types, print/println, and
// calls to anything not provably allocation-free (unannotated module
// functions that allocate, external packages and unresolved dynamic calls
// outside a small allowlist).
//
// Amortized-growth idioms are accepted: any offense inside an if/for whose
// condition compares len()/cap() (the guarded-resize pattern), and
// self-appends x = append(x, ...) which only grow monotonically into
// capacity the guard established. defer is trusted not to allocate
// (open-coded since go1.14) and &localVar is left to escape analysis — the
// runtime tests remain the backstop for both.
var NoallocAnalyzer = &Analyzer{
	Name:      "noalloc",
	Doc:       "//ferret:noalloc functions must be allocation-free, transitively",
	RunModule: runNoalloc,
}

func runNoalloc(mp *ModulePass) {
	prog := mp.Prog
	for _, fi := range prog.sortedFuncs() {
		if !fi.Noalloc {
			continue
		}
		seen := map[token.Pos]bool{}
		for _, off := range prog.allocOffenses(fi) {
			if seen[off.pos] {
				continue
			}
			seen[off.pos] = true
			mp.Reportf(off.pos, "%s is //ferret:noalloc but %s", fi.Name(), off.msg)
		}
	}
}

// allocOffense is one allocation site (or unprovable call) in a function.
type allocOffense struct {
	pos token.Pos
	msg string
}

type allocFacts struct {
	state    int8 // 0 unknown, 1 in progress, 2 done
	offenses []allocOffense
}

// allocOffenses computes (memoized) a function's allocation offenses.
// Recursion is resolved optimistically: a cycle of otherwise-clean
// functions is clean.
func (prog *Program) allocOffenses(fi *FuncInfo) []allocOffense {
	f := prog.allocFacts[fi]
	if f == nil {
		f = &allocFacts{}
		prog.allocFacts[fi] = f
	}
	switch f.state {
	case 1:
		return nil
	case 2:
		return f.offenses
	}
	f.state = 1
	offs := prog.computeAllocOffenses(fi)
	f.offenses = offs
	f.state = 2
	return offs
}

// allocWhy summarizes why a function allocates, for call-chain messages.
func (prog *Program) allocWhy(fi *FuncInfo) string {
	offs := prog.allocOffenses(fi)
	if len(offs) == 0 {
		return ""
	}
	return fmt.Sprintf("%s at %s", offs[0].msg, prog.shortPos(offs[0].pos))
}

func (prog *Program) computeAllocOffenses(fi *FuncInfo) []allocOffense {
	if fi.Decl.Body == nil {
		return nil // assembly or external implementation: the declaration carries the contract
	}
	var offs []allocOffense
	info := fi.Pkg.Info
	report := func(pos token.Pos, format string, args ...any) {
		offs = append(offs, allocOffense{pos: pos, msg: fmt.Sprintf(format, args...)})
	}

	walkStack(fi.Decl.Body, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if !capLenGuarded(stack) {
				report(x.Pos(), "creates a closure (function literal)")
			}
			return false // body runs under its own (unchecked) contract
		case *ast.GoStmt:
			report(x.Pos(), "starts a goroutine")
			return false
		case *ast.CompositeLit:
			if capLenGuarded(stack) {
				return true
			}
			switch x.Type.(type) {
			case *ast.ArrayType:
				if x.Type.(*ast.ArrayType).Len == nil {
					report(x.Pos(), "allocates a slice literal")
				}
			case *ast.MapType:
				report(x.Pos(), "allocates a map literal")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND && !capLenGuarded(stack) {
				if _, ok := unparen(x.X).(*ast.CompositeLit); ok {
					report(x.Pos(), "allocates (&composite literal escapes to the heap)")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && !capLenGuarded(stack) && isStringy(info, x.X, x.Y) {
				report(x.Pos(), "concatenates strings")
			}
		case *ast.CallExpr:
			prog.checkCall(fi, x, stack, report)
		}
		return true
	})
	return offs
}

// checkCall classifies one call expression inside a noalloc-checked body.
func (prog *Program) checkCall(fi *FuncInfo, call *ast.CallExpr, stack []ast.Node, report func(token.Pos, string, ...any)) {
	info := fi.Pkg.Info
	guarded := capLenGuarded(stack)

	// Builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok && isBuiltinName(id.Name) {
		if _, isFunc := objOf(info, id).(*types.Func); !isFunc {
			switch id.Name {
			case "make":
				if !guarded {
					report(call.Pos(), "calls make")
				}
			case "new":
				if !guarded {
					report(call.Pos(), "calls new")
				}
			case "append":
				if !guarded && !isSelfAppend(call, stack) {
					report(call.Pos(), "append may grow its backing array (not the self-append idiom)")
				}
			case "print", "println":
				report(call.Pos(), "calls %s", id.Name)
			}
			return
		}
	}

	// Conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if !guarded {
			prog.checkConversion(call, report)
		}
		return
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isType := objOf(info, id).(*types.TypeName); isType {
			if !guarded {
				prog.checkConversion(call, report)
			}
			return
		}
	}

	cs := fi.callSiteOf(call)
	if cs == nil {
		return // immediately-invoked literal (flagged at the FuncLit) or conversion
	}
	if guarded {
		return // amortized: the guard bounds how often this path runs
	}
	switch {
	case cs.Callee != nil:
		if cs.Callee.Noalloc {
			return
		}
		if why := prog.allocWhy(cs.Callee); why != "" {
			report(call.Pos(), "calls %s, which allocates: %s", cs.Callee.Name(), why)
		}
	case cs.ExtPath != "":
		if noallocExtPkgs[cs.ExtPath] || noallocExtFuncs[cs.ExtPath+"."+cs.Name] {
			return
		}
		report(call.Pos(), "calls %s.%s (external, not provably allocation-free)", cs.ExtPath, cs.Name)
	case cs.Method:
		if noallocMethods[cs.Name] {
			return
		}
		report(call.Pos(), "calls method %s on an unresolved receiver (not provably allocation-free)", cs.Name)
	case cs.FuncValue:
		if id, ok := unparen(call.Fun).(*ast.Ident); ok {
			if prog.noallocVars[objOf(info, id)] {
				return // annotated package-level func var: contract on the variable
			}
		}
		report(call.Pos(), "calls through a function value (not provably allocation-free)")
	}
}

// checkConversion flags conversions that allocate: to/from string, and into
// interface types (boxing).
func (prog *Program) checkConversion(call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	switch t := unparen(call.Fun).(type) {
	case *ast.Ident:
		switch t.Name {
		case "string":
			report(call.Pos(), "converts to string (allocates)")
		case "any":
			report(call.Pos(), "converts to any (interface boxing)")
		}
	case *ast.ArrayType:
		if t.Len == nil {
			if id, ok := t.Elt.(*ast.Ident); ok && (id.Name == "byte" || id.Name == "rune") {
				if len(call.Args) == 1 {
					if arg, ok := callArgType(call); ok && arg == "string" {
						report(call.Pos(), "converts string to []%s (allocates)", id.Name)
					} else if _, lit := unparen(call.Args[0]).(*ast.BasicLit); lit {
						report(call.Pos(), "converts string to []%s (allocates)", id.Name)
					}
				}
			}
		}
	case *ast.InterfaceType:
		report(call.Pos(), "converts to an interface type (boxing)")
	}
}

func callArgType(call *ast.CallExpr) (string, bool) {
	if len(call.Args) != 1 {
		return "", false
	}
	if lit, ok := unparen(call.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
		return "string", true
	}
	return "", false
}

// isStringy reports whether a + expression is a string concatenation, from
// literals or resolved types (stub-degraded operands stay silent).
func isStringy(info *types.Info, x, y ast.Expr) bool {
	for _, e := range []ast.Expr{x, y} {
		if lit, ok := unparen(e).(*ast.BasicLit); ok && lit.Kind == token.STRING {
			return true
		}
		if tv, ok := info.Types[e]; ok && tv.Type != nil {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				return true
			}
		}
	}
	return false
}

// isSelfAppend recognizes x = append(x, ...) (including x := under an
// enclosing assignment): growth is monotone into established capacity.
func isSelfAppend(call *ast.CallExpr, stack []ast.Node) bool {
	if len(call.Args) == 0 {
		return false
	}
	dst := exprString(call.Args[0])
	for i := len(stack) - 1; i >= 0; i-- {
		as, ok := stack[i].(*ast.AssignStmt)
		if !ok {
			continue
		}
		for _, lhs := range as.Lhs {
			if exprString(lhs) == dst {
				return true
			}
		}
		return false
	}
	return false
}

// capLenGuarded reports whether an ancestor if/for condition mentions
// len() or cap() — the amortized-growth guard.
func capLenGuarded(stack []ast.Node) bool {
	for _, n := range stack {
		var cond ast.Expr
		switch s := n.(type) {
		case *ast.IfStmt:
			cond = s.Cond
		case *ast.ForStmt:
			cond = s.Cond
		}
		if cond == nil {
			continue
		}
		found := false
		ast.Inspect(cond, func(cn ast.Node) bool {
			if c, ok := cn.(*ast.CallExpr); ok {
				if id, ok := unparen(c.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
					found = true
					return false
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// noallocExtPkgs are stdlib packages whose every function is allocation-free.
var noallocExtPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
	"unsafe":      true, // compile-time operations: none allocates
}

// noallocExtFuncs are individually trusted external functions.
var noallocExtFuncs = map[string]bool{
	"time.Now":          true,
	"time.Since":        true,
	"time.Until":        true,
	"slices.Sort":       true,
	"runtime.KeepAlive": true,
}

// noallocMethods are method names trusted on unresolved (stub-typed)
// receivers: sync primitives, atomics, time.Time/Duration accessors and
// context errors — all allocation-free in the stdlib.
var noallocMethods = map[string]bool{
	"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true, "TryLock": true,
	"Load": true, "Store": true, "Add": true, "Swap": true, "CompareAndSwap": true,
	"Err": true, "Done": true, "Deadline": true,
	"Before": true, "After": true, "IsZero": true, "Sub": true,
	"Nanoseconds": true, "Milliseconds": true, "Seconds": true, "UnixNano": true,
}
