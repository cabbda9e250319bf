package evaltool

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ferret/internal/attr"
	"ferret/internal/core"
	"ferret/internal/object"
	"ferret/internal/sketch"
)

func TestParseBenchmark(t *testing.T) {
	src := `# comment
a b c

x y
`
	sets, err := ParseBenchmark(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 || len(sets[0]) != 3 || sets[1][1] != "y" {
		t.Fatalf("sets %v", sets)
	}
}

func TestParseBenchmarkRejectsSingleton(t *testing.T) {
	if _, err := ParseBenchmark(strings.NewReader("only-one\n")); err == nil {
		t.Fatal("singleton set accepted")
	}
}

func TestBenchmarkRoundTrip(t *testing.T) {
	sets := [][]string{{"a", "b"}, {"c", "d", "e"}}
	var buf bytes.Buffer
	if err := WriteBenchmark(&buf, sets); err != nil {
		t.Fatal(err)
	}
	got, err := ParseBenchmark(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1][2] != "e" {
		t.Fatalf("round trip %v", got)
	}
}

// buildEngine ingests nClusters clusters of perCluster similar objects and
// returns the engine plus the ground-truth sets.
func buildEngine(t *testing.T) (*core.Engine, [][]string) {
	t.Helper()
	const d = 8
	min := make([]float32, d)
	max := make([]float32, d)
	for i := range max {
		max[i] = 1
	}
	e, err := core.Open(core.Config{
		Dir:    t.TempDir(),
		Sketch: sketch.Params{N: 256, K: 1, Min: min, Max: max, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	rng := rand.New(rand.NewSource(1))
	var sets [][]string
	for c := 0; c < 5; c++ {
		base := make([]float32, d)
		for i := range base {
			base[i] = rng.Float32()
		}
		var keys []string
		for m := 0; m < 4; m++ {
			vec := make([]float32, d)
			for i := range vec {
				vec[i] = base[i] + float32(rng.NormFloat64()*0.01)
			}
			key := fmt.Sprintf("c%d/m%d", c, m)
			if _, err := e.Ingest(object.Single(key, vec), attr.Attrs{}); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, key)
		}
		sets = append(sets, keys)
	}
	return e, sets
}

func TestRunPerfectDataset(t *testing.T) {
	e, sets := buildEngine(t)
	r := &Runner{Engine: e, Options: core.QueryOptions{Mode: core.BruteForceOriginal}}
	rep, err := r.Run(sets)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != 5 {
		t.Fatalf("ran %d queries", rep.Queries)
	}
	// Tight clusters on a brute-force scan: near-perfect quality.
	if rep.AvgPrecision < 0.95 || rep.AvgFirstTier < 0.95 || rep.AvgSecondTier < 0.95 {
		t.Fatalf("unexpected quality: %s", rep)
	}
	if rep.AvgQueryTime <= 0 {
		t.Fatal("no timing recorded")
	}
	if rep.DatasetSize != 20 {
		t.Fatalf("dataset size %d", rep.DatasetSize)
	}
}

func TestRunSkipsUnknownSets(t *testing.T) {
	e, sets := buildEngine(t)
	sets = append(sets, []string{"ghost/a", "ghost/b"})
	r := &Runner{Engine: e, Options: core.QueryOptions{Mode: core.BruteForceOriginal}}
	rep, err := r.Run(sets)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 1 || rep.Queries != 5 {
		t.Fatalf("skipped=%d queries=%d", rep.Skipped, rep.Queries)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	e, sets := buildEngine(t)
	r := &Runner{Engine: e, Options: core.QueryOptions{Mode: core.BruteForceOriginal}}
	rep, err := r.Run(sets)
	if err != nil {
		t.Fatal(err)
	}
	if rep.P50QueryTime <= 0 || rep.P95QueryTime < rep.P50QueryTime {
		t.Fatalf("percentiles: p50=%v p95=%v", rep.P50QueryTime, rep.P95QueryTime)
	}
	if rep.P95QueryTime > rep.TotalQueryTime {
		t.Fatalf("p95 %v exceeds total %v", rep.P95QueryTime, rep.TotalQueryTime)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	var rep Report
	if rep.percentile(0.5) != 0 {
		t.Fatal("empty percentile not zero")
	}
	rep.latencies = []time.Duration{30, 10, 20}
	if got := rep.percentile(0.5); got != 20 {
		t.Fatalf("p50 = %v", got)
	}
	if got := rep.percentile(1.0); got != 30 {
		t.Fatalf("p100 = %v", got)
	}
	if got := rep.percentile(0); got != 10 {
		t.Fatalf("p0 = %v", got)
	}
}

func TestReportString(t *testing.T) {
	var rep Report
	rep.Add(0.5, 0.25, 0.75)
	s := rep.String()
	for _, want := range []string{"queries=1", "avg_precision=0.500", "first_tier=0.250"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report %q missing %q", s, want)
		}
	}
}
