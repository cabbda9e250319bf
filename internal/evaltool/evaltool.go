// Package evaltool is the Ferret toolkit's performance evaluation tool
// (paper §4.3, §6): it drives batch queries from a formatted benchmark file
// describing ground-truth similarity sets and reports search-quality
// statistics (average precision, first tier, second tier) and query
// latency.
//
// The benchmark file format is one similarity set per line: whitespace-
// separated object keys, '#' comments and blank lines ignored.
package evaltool

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"ferret/internal/core"
	"ferret/internal/metrics"
	"ferret/internal/object"
)

// ParseBenchmark reads a benchmark file of similarity sets.
func ParseBenchmark(r io.Reader) ([][]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var sets [][]string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		keys := strings.Fields(line)
		if len(keys) < 2 {
			return nil, fmt.Errorf("evaltool: line %d: similarity set needs at least 2 members", lineNo)
		}
		sets = append(sets, keys)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return sets, nil
}

// WriteBenchmark writes similarity sets in the format ParseBenchmark reads.
func WriteBenchmark(w io.Writer, sets [][]string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# Ferret benchmark: one similarity set per line")
	for _, set := range sets {
		fmt.Fprintln(bw, strings.Join(set, " "))
	}
	return bw.Flush()
}

// Report aggregates a benchmark run.
type Report struct {
	metrics.QualityStats
	// TotalQueryTime is the sum of query latencies; AvgQueryTime the mean.
	TotalQueryTime time.Duration
	AvgQueryTime   time.Duration
	// P50QueryTime and P95QueryTime are latency percentiles across the
	// run's queries.
	P50QueryTime time.Duration
	P95QueryTime time.Duration
	// DatasetSize is the engine's object count during the run (the default
	// rank for missed gold objects).
	DatasetSize int
	// Skipped counts queries whose key was absent from the database.
	Skipped int

	latencies []time.Duration
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of the recorded latencies.
func (r *Report) percentile(p float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// Runner drives batch queries against an engine.
type Runner struct {
	Engine *core.Engine
	// Options for every query. K is raised automatically to 2·(|Q|−1) so
	// the second-tier metric is measurable; pass a larger K for deeper
	// result lists.
	Options core.QueryOptions
	// QueriesPerSet: how many members of each set act as the query object.
	// The paper uses the first member; default 1.
	QueriesPerSet int
}

// Run executes the benchmark: for each similarity set, the first
// QueriesPerSet members are used as query objects, the query object itself
// is excluded from the results, and quality metrics are accumulated.
func (r *Runner) Run(sets [][]string) (Report, error) {
	rep := Report{DatasetSize: r.Engine.Count()}
	perSet := r.QueriesPerSet
	if perSet <= 0 {
		perSet = 1
	}
	for _, set := range sets {
		// Resolve keys to IDs once per set.
		ids := make([]object.ID, 0, len(set))
		for _, key := range set {
			if id, ok := r.Engine.Meta().LookupKey(key); ok {
				ids = append(ids, id)
			}
		}
		if len(ids) < 2 {
			rep.Skipped++
			continue
		}
		gold := metrics.NewGoldSet(ids...)
		for qi := 0; qi < perSet && qi < len(ids); qi++ {
			query := ids[qi]
			opt := r.Options
			if need := 2 * (len(ids) - 1); opt.K < need+1 {
				opt.K = need + 1 // +1 because the query itself may appear
			}
			start := time.Now()
			ans, err := r.Engine.SearchByID(context.TODO(), query, opt)
			if err != nil {
				return rep, fmt.Errorf("evaltool: query %d of set: %w", query, err)
			}
			lat := time.Since(start)
			rep.TotalQueryTime += lat
			rep.latencies = append(rep.latencies, lat)
			ranked := make([]object.ID, 0, len(ans.Results))
			for _, res := range ans.Results {
				if res.ID == query {
					continue // the query object does not count as a result
				}
				ranked = append(ranked, res.ID)
			}
			rep.Add(
				metrics.AveragePrecision(query, gold, ranked, rep.DatasetSize),
				metrics.FirstTier(query, gold, ranked),
				metrics.SecondTier(query, gold, ranked),
			)
		}
	}
	if rep.Queries > 0 {
		rep.AvgQueryTime = rep.TotalQueryTime / time.Duration(rep.Queries)
		rep.P50QueryTime = rep.percentile(0.50)
		rep.P95QueryTime = rep.percentile(0.95)
	}
	return rep, nil
}

// String renders the report in the style of the paper's tables.
func (r Report) String() string {
	return fmt.Sprintf(
		"queries=%d avg_precision=%.3f first_tier=%.3f second_tier=%.3f avg_time=%v dataset=%d skipped=%d",
		r.Queries, r.AvgPrecision, r.AvgFirstTier, r.AvgSecondTier,
		r.AvgQueryTime.Round(time.Microsecond), r.DatasetSize, r.Skipped,
	)
}
