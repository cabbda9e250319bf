package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json's keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestDeclarationMatchesSpec pins BENCHMARK.json to the tables in spec.go and
// to the contract's limits on names, units and counts.
func TestDeclarationMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloads) || len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Fatalf("%d workloads declared, %d in spec.go (2..8 allowed)", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: declared %q, spec.go has %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	match := func(kind string, got []declared, want []metricSpec, limit int, bounded bool) {
		if len(got) != len(want) || len(got) < 1 || len(got) > limit {
			t.Fatalf("%s: %d declared, %d in spec.go (1..%d allowed)", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			unique(g.Name)
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: declared %+v, spec.go has %+v", kind, i, g, w)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s %s: unit %q", kind, g.Name, g.Unit)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, g.Name)
			case bounded && (g.Bound == nil || *g.Bound <= 0 || *g.Bound > 0.25 || *g.Bound != w.Bound):
				t.Errorf("%s %s: bound %v, spec.go has %v (at most 0.25)", kind, g.Name, g.Bound, w.Bound)
			}
		}
	}
	match("end_to_end", b.EndToEnd, endToEnd, 16, true)
	match("per_layer", b.PerLayer, perLayer, 128, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

func smokeScale(dir string) scale {
	sc := fullScale(300*time.Millisecond, dir)
	sc.imageObjects, sc.shapeObjects = 500, 500
	sc.queries = [2]int{64, 16}
	sc.recallQueries = [2]int{5, 3}
	sc.counted = [2]int{32, 8}
	sc.setups = [2]int{2, 2}
	sc.warmup = 50 * time.Millisecond
	sc.idleFeed = 50 * time.Millisecond
	sc.layerBudget = 2 * time.Millisecond
	return sc
}

// TestSmoke runs every workload at a tiny scale, untraced once and traced
// twice on one seed: every declared metric is emitted exactly once, no
// operation fails the checker, and the per-query work counters of the two
// traced runs are identical.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	sc := smokeScale(t.TempDir())
	names := func(specs []metricSpec) map[string]string {
		out := map[string]string{}
		for _, s := range specs {
			out[s.Name] = s.Unit
		}
		return out
	}
	check := func(r *runResult, want map[string]string) {
		t.Helper()
		if r.Failed != 0 || r.Attempted < 1 || !r.Correct {
			t.Errorf("%s trace=%d: attempted %d failed %d invalid %v: %v", r.Workload, r.Trace, r.Attempted, r.Failed, r.Invalid, r.Failures)
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("%s trace=%d: %d metrics emitted, %d declared", r.Workload, r.Trace, len(r.Metrics), len(want))
		}
		for name, unit := range want {
			if m, ok := r.Metrics[name]; !ok || m.Unit != unit {
				t.Errorf("%s trace=%d: metric %s missing or unit %q != %q", r.Workload, r.Trace, name, m.Unit, unit)
			}
		}
	}
	for _, spec := range workloads {
		cfg := runConfig{spec: spec, seed: 7, sc: sc, log: io.Discard}
		plain, err := runUntraced(ctx, cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		check(plain, names(endToEnd))
		for _, m := range endToEnd {
			if v := plain.Metrics[m.Name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", spec.Name, m.Name, v)
			}
		}

		cfg.traced = true
		var traced [2]*runResult
		for i := range traced {
			if traced[i], err = runTraced(ctx, cfg); err != nil {
				t.Fatalf("%s traced: %v", spec.Name, err)
			}
			check(traced[i], names(perLayer))
		}
		for _, name := range []string{
			"core.rows_scanned_per_query", "core.candidates_per_query", "core.emd_evals_per_query",
			"core.emd_pruned_frac", "core.index_served_frac",
		} {
			a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
			if a != b {
				t.Errorf("%s: %s differs between two same-seed traced runs: %v vs %v", spec.Name, name, a, b)
			}
		}
		for _, name := range []string{"telemetry.trace_overhead_frac", "bench.unattributed_frac"} {
			if _, ok := traced[0].Metrics[name]; !ok {
				t.Errorf("%s: traced run does not report %s", spec.Name, name)
			}
		}
	}
}

// TestQuartilesMatchPython pins the spread rule to Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v; Python gives 1.0, 4.5", q1, q3)
	}
}
