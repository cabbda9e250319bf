// Command ferret-bench regenerates the paper's evaluation tables and
// figures (§6) against the synthetic benchmark datasets:
//
//	ferret-bench -exp table1            # search quality + metadata sizes
//	ferret-bench -exp table2            # search speed (sketch + filter on)
//	ferret-bench -exp figure7           # avg precision vs sketch size
//	ferret-bench -exp figure8           # query time vs dataset size
//	ferret-bench -exp ablations         # design-choice studies
//	ferret-bench -exp all -scale medium
//	ferret-bench -exp table2,figure8 -json results.json
//
// Scales: small (seconds), medium (minutes, default), paper (approaches
// the paper's dataset sizes; slow). -exp accepts a comma-separated list.
// Serving throughput, ingest under load and the index-vs-scan cost are
// measured by the benchmark harness and the core package's benchmarks, not
// here.
//
// -json writes every experiment's rows — including per-query latency
// percentiles — as one JSON document ("-" = stdout).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ferret/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiments (comma-separated): table1, table2, figure7, figure8, ablations or all")
	scaleName := flag.String("scale", "medium", "dataset scale: small, medium or paper")
	jsonPath := flag.String("json", "", "write a machine-readable JSON summary to this file (\"-\" = stdout)")
	flag.Parse()

	scale, ok := experiments.ByName(*scaleName)
	if !ok {
		fmt.Fprintf(os.Stderr, "ferret-bench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	summary := &experiments.Summary{Scale: scale.Name}
	run := func(name, title string, f func() (any, error)) {
		fmt.Printf("=== %s (scale %s) ===\n", title, scale.Name)
		start := time.Now()
		rows, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ferret-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		summary.Add(name, elapsed, rows)
		fmt.Printf("--- %s done in %v ---\n\n", title, elapsed.Round(time.Millisecond))
	}

	want := func(name string) bool {
		for _, e := range strings.Split(*exp, ",") {
			if e == "all" || e == name {
				return true
			}
		}
		return false
	}
	ran := false
	if want("table1") {
		ran = true
		run("table1", "Table 1: search quality", func() (any, error) {
			rows, err := experiments.Table1(scale)
			if err != nil {
				return nil, err
			}
			experiments.FprintTable1(os.Stdout, rows)
			return rows, nil
		})
	}
	if want("table2") {
		ran = true
		run("table2", "Table 2: search speed", func() (any, error) {
			rows, err := experiments.Table2(scale)
			if err != nil {
				return nil, err
			}
			experiments.FprintTable2(os.Stdout, rows)
			return rows, nil
		})
	}
	if want("figure7") {
		ran = true
		run("figure7", "Figure 7: precision vs sketch size", func() (any, error) {
			series, err := experiments.Figure7(scale)
			if err != nil {
				return nil, err
			}
			experiments.FprintFigure7(os.Stdout, series)
			return series, nil
		})
	}
	if want("figure8") {
		ran = true
		run("figure8", "Figure 8: query time vs dataset size", func() (any, error) {
			panels, err := experiments.Figure8(scale)
			if err != nil {
				return nil, err
			}
			experiments.FprintFigure8(os.Stdout, panels)
			return panels, nil
		})
	}
	if want("ablations") {
		ran = true
		run("ablations", "Ablations: design-choice studies", func() (any, error) {
			rows, err := experiments.Ablations(scale)
			if err != nil {
				return nil, err
			}
			experiments.FprintAblations(os.Stdout, rows)
			return rows, nil
		})
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "ferret-bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	if *jsonPath != "" {
		out := os.Stdout
		var f *os.File
		if *jsonPath != "-" {
			var err error
			f, err = os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ferret-bench: %v\n", err)
				os.Exit(1)
			}
			out = f
		}
		if err := summary.WriteJSON(out); err != nil {
			fmt.Fprintf(os.Stderr, "ferret-bench: writing JSON: %v\n", err)
			os.Exit(1)
		}
		// Close is the artifact's durability boundary: a failed close means
		// the JSON the benchmark gate would read may be truncated.
		if f != nil {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "ferret-bench: closing %s: %v\n", *jsonPath, err)
				os.Exit(1)
			}
		}
	}
}
