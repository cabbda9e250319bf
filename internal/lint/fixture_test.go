package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The golden-fixture harness: every directory under testdata/ is a tiny
// module named after the analyzer it exercises (each registered analyzer
// has exactly one), whose .go files carry expectations as comments.
//
//	code // want "substring"        — a diagnostic on this line whose
//	                                  "check: message" contains substring
//	// want-above "substring"       — the same, for the line directly above
//	                                  (used when the flagged line is itself a
//	                                  comment, e.g. a malformed directive)
//
// The full analyzer suite runs over each module; every expectation must be
// matched by a diagnostic and every diagnostic by an expectation.

var wantRe = regexp.MustCompile(`// want(-above)? "([^"]+)"`)

type expectation struct {
	file string
	line int
	want string // substring of "check: message"
}

func TestFixtures(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatalf("reading testdata: %v", err)
	}
	want := map[string]bool{}
	for _, a := range Analyzers() {
		want[a.Name] = true
	}
	for _, e := range entries {
		// "_"-prefixed fixtures back focused unit tests (see
		// callgraph_test.go), not the diagnostic sweep.
		if !e.IsDir() || strings.HasPrefix(e.Name(), "_") {
			continue
		}
		dir := filepath.Join("testdata", e.Name())
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
			continue
		}
		if !want[e.Name()] {
			t.Errorf("fixture module %s names no registered analyzer", e.Name())
		}
		delete(want, e.Name())
		t.Run(e.Name(), func(t *testing.T) { runFixture(t, dir) })
	}
	for name := range want {
		t.Errorf("analyzer %s has no fixture module testdata/%s", name, name)
	}
}

func runFixture(t *testing.T, dir string) {
	root, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root)
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("Load(%s): no packages", dir)
	}
	diags := Run(pkgs, Analyzers())

	wants, err := collectWants(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s declares no // want expectations", dir)
	}

	// Match each diagnostic against the expectations on its line.
	unmatched := append([]expectation(nil), wants...)
	for _, d := range diags {
		got := d.Check + ": " + d.Message
		idx := -1
		for i, w := range unmatched {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && strings.Contains(got, w.want) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		unmatched = append(unmatched[:idx], unmatched[idx+1:]...)
	}
	for _, w := range unmatched {
		t.Errorf("missing diagnostic: %s:%d: want %q", relTo(root, w.file), w.line, w.want)
	}
}

// collectWants scans the fixture's .go files for // want comments.
func collectWants(root string) ([]expectation, error) {
	var out []expectation
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		line := 0
		for sc.Scan() {
			line++
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				exp := expectation{file: path, line: line, want: m[2]}
				if m[1] == "-above" {
					exp.line = line - 1
				}
				out = append(out, exp)
			}
		}
		return sc.Err()
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out, err
}

func relTo(root, path string) string {
	if r, err := filepath.Rel(root, path); err == nil {
		return r
	}
	return path
}

// TestDirectiveMalformed pins the malformed-directive behavior directly: the
// fixture sweep above relies on it, but the rule is worth a focused check.
func TestDirectiveMalformed(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "floatcmp"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, Analyzers())
	var directive, floatcmp int
	for _, d := range diags {
		switch d.Check {
		case "directive":
			directive++
		case "floatcmp":
			floatcmp++
		}
	}
	if directive != 1 {
		t.Errorf("want exactly 1 malformed-directive diagnostic, got %d", directive)
	}
	if floatcmp == 0 {
		t.Errorf("want floatcmp diagnostics to survive a reason-less directive, got none\n%s", format(diags))
	}
}

func format(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
