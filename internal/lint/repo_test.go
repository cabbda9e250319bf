package lint

import (
	"path/filepath"
	"testing"
)

// TestRepoIsLintClean is the regression gate behind `make check`: the whole
// ferret tree must produce zero diagnostics from the full analyzer suite.
// Any new violation either gets fixed or carries an explicit
// //lint:ignore <check> <reason> at the site.
func TestRepoIsLintClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root)
	if err != nil {
		t.Fatalf("Load(repo root): %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded (%d); loader regression?", len(pkgs))
	}
	diags := Run(pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d lint diagnostics in the tree; fix them or add //lint:ignore with a reason", len(diags))
	}
}
