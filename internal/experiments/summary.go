package experiments

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"time"

	"ferret/internal/core"
	"ferret/internal/object"
)

// LatencySummary condenses a batch of per-query wall-clock timings into the
// shape machine consumers want: mean, tail percentiles and throughput.
type LatencySummary struct {
	Queries int     `json:"queries"`
	MeanSec float64 `json:"mean_sec"`
	P50Sec  float64 `json:"p50_sec"`
	P90Sec  float64 `json:"p90_sec"`
	P99Sec  float64 `json:"p99_sec"`
	QPS     float64 `json:"qps"`
}

// summarizeLatencies computes a LatencySummary over per-query durations in
// seconds (the slice is sorted in place).
func summarizeLatencies(secs []float64) LatencySummary {
	if len(secs) == 0 {
		return LatencySummary{}
	}
	sort.Float64s(secs)
	total := 0.0
	for _, s := range secs {
		total += s
	}
	s := LatencySummary{
		Queries: len(secs),
		MeanSec: total / float64(len(secs)),
		P50Sec:  percentileSorted(secs, 0.50),
		P90Sec:  percentileSorted(secs, 0.90),
		P99Sec:  percentileSorted(secs, 0.99),
	}
	if total > 0 {
		s.QPS = float64(len(secs)) / total
	}
	return s
}

// percentileSorted is the nearest-rank percentile of an ascending slice.
func percentileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

// measureQueries runs the query objects against the engine in the given
// mode, timing each query individually, and summarizes the latencies.
func measureQueries(e *core.Engine, queries []object.Object, mode core.Mode, k int) (LatencySummary, error) {
	secs := make([]float64, 0, len(queries))
	for i := range queries {
		opt := core.QueryOptions{Mode: mode, K: k, Filter: speedFilter}
		start := time.Now()
		if _, err := e.Search(context.TODO(), queries[i], opt); err != nil {
			return LatencySummary{}, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return summarizeLatencies(secs), nil
}

// ExperimentResult is one experiment's machine-readable output: its name,
// wall-clock runtime and the experiment-specific rows.
type ExperimentResult struct {
	Name       string  `json:"name"`
	ElapsedSec float64 `json:"elapsed_sec"`
	Rows       any     `json:"rows"`
}

// Summary is the ferret-bench -json document.
type Summary struct {
	Scale   string             `json:"scale"`
	Results []ExperimentResult `json:"results"`
}

// Add records one finished experiment.
func (s *Summary) Add(name string, elapsed time.Duration, rows any) {
	s.Results = append(s.Results, ExperimentResult{
		Name:       name,
		ElapsedSec: elapsed.Seconds(),
		Rows:       rows,
	})
}

// WriteJSON renders the summary as indented JSON.
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
