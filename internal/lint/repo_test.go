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

// TestLockGraphCoversCompactor pins the analyzer's view of the engine's
// writer-side lock protocol: the module-wide lock graph must contain the
// compactMu → ingestMu → mu acquisition chain (Compact freezes the
// compactor, then ingest, then swaps under the writer mutex) and must not
// contain any reverse edge among the three — the zero-diagnostics gate
// above would only prove the analyzer found no cycle, not that it models
// these locks at all. Engine.mu must stay a leaf: a view is derived and
// published under it with no other lock taken, and queries — which used to
// hold it across store reads and trace records — no longer take it at all.
func TestLockGraphCoversCompactor(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root)
	if err != nil {
		t.Fatalf("Load(repo root): %v", err)
	}
	edges, _ := NewProgram(pkgs).lockGraph()
	const (
		compactMu = LockID("internal/core.Engine.compactMu")
		ingestMu  = LockID("internal/core.Engine.ingestMu")
		engineMu  = LockID("internal/core.Engine.mu")
	)
	has := map[[2]LockID]bool{}
	for _, e := range edges {
		has[[2]LockID{e.From, e.To}] = true
		if e.From == engineMu {
			t.Errorf("%s is held while %s is acquired: the writer mutex must be a leaf", engineMu, e.To)
		}
	}
	order := [][2]LockID{
		{compactMu, ingestMu},
		{compactMu, engineMu},
		{ingestMu, engineMu},
	}
	for _, want := range order {
		if !has[want] {
			t.Errorf("lock graph misses the %s -> %s acquisition edge", want[0], want[1])
		}
		rev := [2]LockID{want[1], want[0]}
		if has[rev] {
			t.Errorf("lock graph contains the reverse %s -> %s edge: protocol violation", rev[0], rev[1])
		}
	}
}
