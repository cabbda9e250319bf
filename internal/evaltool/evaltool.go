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

// Runner drives batch queries against an in-process engine.
type Runner struct {
	Engine *core.Engine
	// Options for every query. K is raised automatically to 2·(|Q|−1) so
	// the second-tier metric is measurable; pass a larger K for deeper
	// result lists.
	Options core.QueryOptions
}

// Run executes the benchmark in process: each query is a key look-up and a
// SearchByID, scored by score's rule.
func (r *Runner) Run(sets [][]string) (Report, error) {
	return score(sets, r.Engine.Count(), func(key string, k int) ([]string, bool, error) {
		id, ok := r.Engine.Meta().LookupKey(key)
		if !ok {
			return nil, false, nil
		}
		opt := r.Options
		opt.K = max(opt.K, k)
		ans, err := r.Engine.SearchByID(context.TODO(), id, opt)
		if err != nil {
			return nil, true, fmt.Errorf("evaltool: query %s: %w", key, err)
		}
		keys := make([]string, len(ans.Results))
		for i, res := range ans.Results {
			keys[i] = res.Key
		}
		return keys, true, nil
	})
}

// queryFunc runs one query by object key for at least k results and returns
// the result keys in rank order; found is false when the database does not
// hold key.
type queryFunc func(key string, k int) (keys []string, found bool, err error)

// score is the evaluation loop of both runners (paper §4.3): the first
// listed member of each similarity set is the query object, every listed
// member is gold, a set whose query key the database does not hold is
// skipped, and the query object itself is dropped from its results. Keys
// get stable synthetic IDs so the metrics package, which ranks by
// object.ID, scores key-level results; a gold member the database lacks is
// never retrieved and takes the default rank datasetSize.
func score(sets [][]string, datasetSize int, query queryFunc) (Report, error) {
	rep := Report{DatasetSize: datasetSize}
	idOf := map[string]object.ID{}
	intern := func(key string) object.ID {
		if id, ok := idOf[key]; ok {
			return id
		}
		id := object.ID(len(idOf) + 1)
		idOf[key] = id
		return id
	}
	for _, set := range sets {
		if len(set) < 2 {
			rep.Skipped++
			continue
		}
		ids := make([]object.ID, len(set))
		for i, key := range set {
			ids[i] = intern(key)
		}
		start := time.Now()
		// +1 because the query object itself may appear in its results.
		keys, found, err := query(set[0], 2*(len(set)-1)+1)
		if err != nil {
			return rep, err
		}
		if !found {
			rep.Skipped++
			continue
		}
		lat := time.Since(start)
		rep.TotalQueryTime += lat
		rep.latencies = append(rep.latencies, lat)
		ranked := make([]object.ID, 0, len(keys))
		for _, key := range keys {
			if key != set[0] {
				ranked = append(ranked, intern(key))
			}
		}
		gold := metrics.NewGoldSet(ids...)
		rep.Add(
			metrics.AveragePrecision(ids[0], gold, ranked, rep.DatasetSize),
			metrics.FirstTier(ids[0], gold, ranked),
			metrics.SecondTier(ids[0], gold, ranked),
		)
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
