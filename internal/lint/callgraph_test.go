package lint

import (
	"path/filepath"
	"testing"
)

// The synthetic DAG under testdata/_callgraph (underscore: invisible to both
// the fixture sweep and Load's module walk) pins the call-graph layer
// directly: top -> mid -> leaf, with one of each unresolvable call shape in
// mid.

func loadProgram(t *testing.T, dir string) *Program {
	t.Helper()
	root, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root)
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("Load(%s): got %d packages, want 3", dir, len(pkgs))
	}
	return NewProgram(pkgs)
}

func funcByName(t *testing.T, prog *Program, name string) *FuncInfo {
	t.Helper()
	for _, fi := range prog.Funcs {
		if fi.Name() == name {
			return fi
		}
	}
	t.Fatalf("function %s not found in program", name)
	return nil
}

// calleeNames gathers the resolved callees of a function's call sites.
func calleeNames(fi *FuncInfo) map[string]bool {
	out := map[string]bool{}
	for _, cs := range fi.Calls {
		if cs.Callee != nil {
			out[cs.Callee.Name()] = true
		}
	}
	return out
}

func TestCallGraphResolution(t *testing.T) {
	prog := loadProgram(t, filepath.Join("testdata", "_callgraph"))

	for _, name := range []string{"(*Table).Append", "(*Table).Len", "Combine", "Fill", "Report", "Build"} {
		funcByName(t, prog, name)
	}

	// Static dispatch resolves across packages, methods included, and finds
	// calls nested inside argument lists (leaf.Combine inside t.Append(...)).
	fill := calleeNames(funcByName(t, prog, "Fill"))
	for _, want := range []string{"(*Table).Append", "Combine"} {
		if !fill[want] {
			t.Errorf("Fill: missing resolved call to %s (got %v)", want, fill)
		}
	}
	build := calleeNames(funcByName(t, prog, "Build"))
	for _, want := range []string{"Fill", "(*Table).Len"} {
		if !build[want] {
			t.Errorf("Build: missing resolved call to %s (got %v)", want, build)
		}
	}

	// The three conservative shapes: interface dispatch, function value,
	// external package. Each is kept as an unresolved site, never dropped.
	var iface, fnval, ext *CallSite
	report := funcByName(t, prog, "Report")
	for _, cs := range report.Calls {
		switch {
		case cs.Method && cs.Name == "Write":
			iface = cs
		case cs.FuncValue && cs.Name == "Hook":
			fnval = cs
		case cs.ExtPath == "fmt" && cs.Name == "Println":
			ext = cs
		}
	}
	if iface == nil || iface.Callee != nil {
		t.Errorf("Report: s.Write should be an unresolved interface-method site, got %+v", iface)
	}
	if fnval == nil || fnval.Callee != nil {
		t.Errorf("Report: Hook(n) should be an unresolved function-value site, got %+v", fnval)
	}
	if ext == nil || ext.Callee != nil {
		t.Errorf("Report: fmt.Println should be an external site, got %+v", ext)
	}
	if !calleeNames(report)["(*Table).Len"] {
		t.Errorf("Report: missing resolved call to (*Table).Len")
	}
}
