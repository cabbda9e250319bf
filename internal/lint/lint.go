// Package lint is ferret's project-specific static-analysis suite. It is a
// self-contained analyzer driver on the standard library's go/parser, go/ast
// and go/types (no golang.org/x/tools dependency, honoring the repo's
// stdlib-only rule) with seven analyzers enforcing invariants that go vet
// cannot see:
//
//   - layering: the package import DAG (vector/sketch/object/protocol/
//     telemetry/dsp are leaves, core never imports the serving layer,
//     cmd binaries reach the engine only through the public ferret facade).
//   - atomicfield: struct fields of sync/atomic type (or tagged
//     ferret:atomic) are only touched through atomic operations.
//   - poolescape: values drawn from a sync.Pool never escape through
//     globals, foreign struct fields, channels, or exported-function
//     returns — the contract behind the filter path's 0 allocs/op. Pooled
//     values are tracked through one level of intra-module calls.
//   - floatcmp: no ==/!= on floating-point values (distances, weights)
//     outside the blessed math.Trunc integerness idiom.
//   - errclose: Close/Sync/Flush errors on writable files must be checked,
//     never discarded via a bare defer — the WAL/checkpoint durability rule.
//   - ctxfirst: exported blocking entry points in internal/core and
//     internal/server (Search*, Serve*, Query*, Shutdown*, Drain*, Dial*,
//     Wait*) take a context.Context first, so cancellation and deadlines
//     propagate end to end.
//   - noalloc: functions annotated //ferret:noalloc are allocation-free,
//     transitively through resolved calls — the static complement of the
//     runtime allocs/op tests on the filter/probe/trace hot paths.
//
// poolescape and noalloc are module-wide: they run over an interprocedural
// Program (the static call graph in callgraph.go) instead of one package at
// a time. DESIGN.md §13 describes the call graph and its soundness caveats.
// The engine's writer lock order is pinned at run time instead, by
// internal/core's TestSnapshotStress.
//
// A diagnostic can be suppressed with a directive on, or on the line above,
// the offending line:
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// The reason is mandatory; a directive without one is itself reported, and
// so is a directive that no longer suppresses anything (when every check it
// names is part of the run).
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named check. Exactly one of Run (per-package) and
// RunModule (module-wide, over the interprocedural Program) is set.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Check   string
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Check)
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     p.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// ModulePass carries one module-wide analyzer run over the whole Program.
type ModulePass struct {
	Analyzer *Analyzer
	Prog     *Program
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos (all packages share one FileSet).
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     p.Prog.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LayeringAnalyzer,
		AtomicFieldAnalyzer,
		PoolEscapeAnalyzer,
		FloatCmpAnalyzer,
		ErrCloseAnalyzer,
		CtxFirstAnalyzer,
		NoallocAnalyzer,
	}
}

// ByName resolves a comma-separated checks list ("layering,floatcmp") to
// analyzers; "all" or "" selects the whole suite.
func ByName(list string) ([]*Analyzer, error) {
	all := Analyzers()
	if list == "" || list == "all" {
		return all, nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes the analyzers over the packages, applies //lint:ignore
// directives, and returns the surviving diagnostics sorted by position.
// Malformed directives (no reason), directives naming a check the suite
// does not have, and directives that suppressed nothing are reported under
// the "directive" check.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	dirs := map[dirKey][]dirEntry{}
	var recs []*directiveRec
	prog := NewProgram(pkgs)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run != nil {
				a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
			}
		}
		collectDirectives(pkg, dirs, &recs, &diags)
	}
	for _, a := range analyzers {
		if a.RunModule != nil {
			a.RunModule(&ModulePass{Analyzer: a, Prog: prog, diags: &diags})
		}
	}
	out := diags[:0]
	for _, d := range diags {
		if !suppressed(dirs, d) {
			out = append(out, d)
		}
	}
	// Unused-suppression audit: a directive naming an unknown check (a
	// removed analyzer, a typo) can never suppress anything; one that matched
	// no diagnostic is stale — but only claim so when every check it names
	// actually ran.
	known := map[string]bool{"*": true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	selected := map[string]bool{}
	for _, a := range analyzers {
		selected[a.Name] = true
	}
	for _, rec := range recs {
		for _, c := range rec.checks {
			if !known[c] {
				out = append(out, Diagnostic{
					Check:   "directive",
					Pos:     rec.pos,
					Message: fmt.Sprintf("//lint:ignore names unknown check %q", c),
				})
			}
		}
		if rec.used {
			continue
		}
		eligible := true
		for _, c := range rec.checks {
			if c != "*" && !selected[c] {
				eligible = false
				break
			}
		}
		if !eligible {
			continue
		}
		out = append(out, Diagnostic{
			Check:   "directive",
			Pos:     rec.pos,
			Message: fmt.Sprintf("unused //lint:ignore directive: no %s diagnostic here to suppress", strings.Join(rec.checks, ",")),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}

// dirKey addresses one source line.
type dirKey struct {
	file string
	line int
}

// directiveRec is one //lint:ignore comment; used flips when any diagnostic
// matches it.
type directiveRec struct {
	pos    token.Position
	checks []string
	used   bool
}

// dirEntry is one (check, directive) coverage claim on a line.
type dirEntry struct {
	check string
	rec   *directiveRec
}

const directivePrefix = "//lint:ignore"

// collectDirectives parses every //lint:ignore comment in the package into
// dirs. A directive covers its own line (trailing-comment form) and the line
// directly below it (standalone-comment form). Directives without a reason
// are reported as "directive" diagnostics instead.
func collectDirectives(pkg *Package, dirs map[dirKey][]dirEntry, recs *[]*directiveRec, diags *[]Diagnostic) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(c.Text, directivePrefix))
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) < 2 {
					*diags = append(*diags, Diagnostic{
						Check:   "directive",
						Pos:     pos,
						Message: `malformed //lint:ignore directive: want "//lint:ignore <check>[,<check>] <reason>" with a non-empty reason`,
					})
					continue
				}
				rec := &directiveRec{pos: pos, checks: strings.Split(fields[0], ",")}
				*recs = append(*recs, rec)
				for _, line := range []int{pos.Line, pos.Line + 1} {
					k := dirKey{pos.Filename, line}
					for _, check := range rec.checks {
						dirs[k] = append(dirs[k], dirEntry{check: check, rec: rec})
					}
				}
			}
		}
	}
}

// suppressed reports whether a directive covers the diagnostic's line; check
// lists match by name or "*". Matching marks the directive used. Malformed-
// directive reports are never suppressed.
func suppressed(dirs map[dirKey][]dirEntry, d Diagnostic) bool {
	if d.Check == "directive" {
		return false
	}
	for _, e := range dirs[dirKey{d.Pos.Filename, d.Pos.Line}] {
		if e.check == d.Check || e.check == "*" {
			e.rec.used = true
			return true
		}
	}
	return false
}
