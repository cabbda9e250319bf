// Command ferret-lint runs ferret's project-specific static-analysis suite:
// seven analyzers enforcing the concurrency, pooling, allocation, error
// and layering invariants that go vet cannot see (run -list for the
// catalog). It is built purely on the standard library's go/parser, go/ast
// and go/types.
//
// Usage:
//
//	ferret-lint [-checks list] [-list] [-json] [-debug] [dir | ./...]
//
// The argument is the module root (or any directory inside it; "./..." is
// accepted and means "the module containing the current directory").
//
// Exit status:
//
//	0  no diagnostics
//	1  diagnostics were reported
//	2  usage error, unknown check, or the module failed to load
//
// With -json each diagnostic is one JSON object per line on stdout
// ({"check","file","line","col","message"}) for CI annotation; the human
// format and exit statuses are unchanged otherwise.
//
// -debug prints tolerated type-check errors (stub stdlib references) to
// stderr.
//
// Diagnostics can be suppressed per line with
//
//	//lint:ignore <check>[,<check>] <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ferret/internal/lint"
)

// checksHelp builds the -checks help text from the registered analyzers, so
// it cannot go stale as the suite grows.
func checksHelp() string {
	names := make([]string, 0, len(lint.Analyzers()))
	for _, a := range lint.Analyzers() {
		names = append(names, a.Name)
	}
	return fmt.Sprintf("comma-separated checks to run (%s) or \"all\"", strings.Join(names, ","))
}

func main() {
	checks := flag.String("checks", "all", checksHelp())
	list := flag.Bool("list", false, "list available checks and exit")
	jsonOut := flag.Bool("json", false, "emit one JSON object per diagnostic line on stdout")
	debug := flag.Bool("debug", false, "print tolerated type-check errors to stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ferret-lint [-checks list] [-list] [-json] [-debug] [dir | ./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := lint.ByName(*checks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ferret-lint: %v\n", err)
		os.Exit(2)
	}

	dir := "."
	if flag.NArg() > 0 {
		dir = strings.TrimSuffix(flag.Arg(0), "...")
		dir = strings.TrimSuffix(dir, string(filepath.Separator))
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" {
			dir = "."
		}
	}
	root, err := findModuleRoot(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ferret-lint: %v\n", err)
		os.Exit(2)
	}

	pkgs, err := lint.Load(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ferret-lint: %v\n", err)
		os.Exit(2)
	}
	if *debug {
		for _, p := range pkgs {
			for _, te := range p.TypeErrors {
				fmt.Fprintf(os.Stderr, "ferret-lint: debug: %s: %v\n", p.ImportPath, te)
			}
		}
	}

	diags := lint.Run(pkgs, analyzers)
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		rel := d.Pos.Filename
		if r, err := filepath.Rel(root, rel); err == nil && !strings.HasPrefix(r, "..") {
			rel = r
		}
		if *jsonOut {
			enc.Encode(struct {
				Check   string `json:"check"`
				File    string `json:"file"`
				Line    int    `json:"line"`
				Col     int    `json:"col"`
				Message string `json:"message"`
			}{d.Check, rel, d.Pos.Line, d.Pos.Column, d.Message})
			continue
		}
		fmt.Printf("%s:%d:%d: %s (%s)\n", rel, d.Pos.Line, d.Pos.Column, d.Message, d.Check)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ferret-lint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

// findModuleRoot walks upward from dir to the directory containing go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}
