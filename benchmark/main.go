// Command benchmark is the repository's one reproducible benchmark: four
// fixed workloads, eight end-to-end metrics from an untraced timed window, and
// a separate traced run that gives per-layer numbers. BENCHMARK.json declares
// the same names; README.md explains how to run it and what each layer
// metric is predicted to move.
//
//	go run ./benchmark -workload all -seed 1 -out results.json
//	go run ./benchmark -workload image_engine -seed 1 -seconds 15 -trace 0
//	go run ./benchmark -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same corpus, queries and write stream")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the timed window")
		traceArg = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1: one after the other")
		out      = flag.String("out", "", "append the runs to this JSON file (with environment and flush policy)")
		traceOut = flag.String("trace-out", "", "traced runs: write the span records (name, start, end, parent, request id) here")
		dir      = flag.String("dir", ".bench_build/data", "parent directory for the stores the run creates and removes")
		objects  = flag.Int("objects", 0, "override both corpus sizes (smoke runs; validity rules are then not enforced)")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: benchmark -compare a.json b.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	specs := workloads
	if *workload != "all" {
		spec, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		specs = []workloadSpec{spec}
	}
	sc := fullScale(time.Duration(*seconds*float64(time.Second)), *dir)
	strict := true
	if *objects > 0 {
		sc.imageObjects, sc.shapeObjects, strict = *objects, *objects, false
	}
	modes := []bool{false, true}
	if *traceArg >= 0 {
		modes = []bool{*traceArg != 0}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var runs []*runResult
	ok := true
	for _, spec := range specs {
		for _, traced := range modes {
			start := time.Now()
			cfg := runConfig{spec: spec, seed: *seed, sc: sc, traced: traced, strict: strict, traceOut: *traceOut, log: os.Stderr}
			run := runUntraced
			if traced {
				run = runTraced
			}
			res, err := run(ctx, cfg)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", spec.Name, err))
			}
			fmt.Fprintf(os.Stderr, "  %s trace=%d finished in %v\n", spec.Name, res.Trace, time.Since(start).Round(10*time.Millisecond))
			printRun(res)
			runs = append(runs, res)
			ok = ok && res.Correct
		}
	}
	if *out != "" {
		if err := appendRuns(*out, runs); err != nil {
			fatal(err)
		}
	}
	// The last run's result line is the last line of standard output.
	line, err := json.Marshal(runs[len(runs)-1].resultLine)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printRun lists every metric of a run by name with its unit.
func printRun(r *runResult) {
	fmt.Printf("workload %s seed %d trace %d window %gs: attempted %d failed %d\n", r.Workload, r.Seed, r.Trace, r.Seconds, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-34s %16.6g %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	for k, n := range r.Samples {
		fmt.Printf("  samples %-26s %16d\n", k, n)
	}
	for _, s := range r.Invalid {
		fmt.Printf("  INVALID: %s\n", s)
	}
	for _, s := range r.Failures {
		fmt.Printf("  FAILED: %s\n", s)
	}
}

// environment is recorded beside the runs of an -out file.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Flush      string `json:"flush_policy"`
	Load       string `json:"load"`
}

type outFile struct {
	Env  environment  `json:"env"`
	Runs []*runResult `json:"runs"`
}

func currentEnv() environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Flush:      fmt.Sprintf("kvstore.SyncPeriodic, %v, every workload", syncInterval),
		Load:       fmt.Sprintf("closed-loop queries from one goroutine or v2 connection; shape_rw: open-loop writer at %.0f ops/s", writeRate),
	}
}

// commit is the VCS revision stamped into the binary, else what git says
// about the working directory, else "unknown" (the driver's checkout is not a
// repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

func readOutFile(path string) (outFile, error) {
	var f outFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// appendRuns adds the runs to path, so one set of runs can be built from
// several process invocations.
func appendRuns(path string, runs []*runResult) error {
	f, err := readOutFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Env = currentEnv()
	f.Runs = append(f.Runs, runs...)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
