package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"ferret/internal/core"
	"ferret/internal/kvstore"
	"ferret/internal/object"
	"ferret/internal/synth"
)

// ThroughputRow is one arm of the closed-loop serving benchmark: a fixed
// number of clients, each issuing its next query the moment the previous
// answer returns, against an engine with the shared-scan scheduler either
// disabled (one-query-at-a-time, the pre-scheduler serving model) or
// enabled. QPS is wall-clock throughput over the whole run; the latency
// percentiles are per-query as a client sees them (including any time spent
// queued in the coalescing window).
type ThroughputRow struct {
	Concurrency     int            `json:"concurrency"`
	Batched         bool           `json:"batched"`
	Queries         int            `json:"queries"`
	WallSec         float64        `json:"wall_sec"`
	QPS             float64        `json:"qps"`
	Latency         LatencySummary `json:"latency"`
	Batches         int64          `json:"batches"`
	Coalesced       int64          `json:"coalesced"`
	MeanBatchSize   float64        `json:"mean_batch_size,omitempty"`
	SpeedupVsSerial float64        `json:"speedup_vs_serial,omitempty"`
}

// ThroughputOptions narrows the sweep from ferret-bench's -concurrency and
// -batch flags; the zero value runs the full grid (both arms, clients
// doubling 1..8).
type ThroughputOptions struct {
	Concurrencies []int // nil = {1, 2, 4, 8}
	BatchedOnly   bool  // skip the unbatched baseline arm
}

// Scheduler shape for the batched arm: a short coalescing window and a
// batch cap equal to the largest client count in the sweep, so a full
// 8-client burst dispatches the moment the last straggler arrives instead
// of waiting out the window (a lone client still pays the full window —
// visible in the concurrency-1 row).
var throughputSched = core.SchedulerParams{Window: 200 * time.Microsecond, MaxBatch: 8}

// Throughput measures serving throughput on the mixed-shape speed corpus
// (the heaviest speed dataset: 800-bit sketches). The corpus is ingested
// once; the batched arm reopens the same store with the scheduler enabled,
// so both arms search identical data.
func Throughput(scale Scale, opts ThroughputOptions) ([]ThroughputRow, error) {
	dt := mixedShapeType()
	objs := synth.MixedShapeObjects(scale.MixedShapeN, 301)
	queries := synth.MixedShapeObjects(64, 909)
	perClient := 20 * scale.SpeedQueries

	dir, err := os.MkdirTemp("", "ferret-exp-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	open := func(sched core.SchedulerParams) (*core.Engine, error) {
		return core.Open(core.Config{
			Dir:           dir,
			Sketch:        dt.sketchCfg(dt.sketchBits),
			RankThreshold: dt.rankThresh,
			Scheduler:     sched,
			Store:         kvstore.Options{Sync: kvstore.SyncPeriodic, SyncInterval: time.Minute},
		})
	}

	concs := opts.Concurrencies
	if len(concs) == 0 {
		concs = []int{1, 2, 4, 8}
	}
	arms := []bool{false, true}
	if opts.BatchedOnly {
		arms = []bool{true}
	}

	var rows []ThroughputRow
	ingested := false
	for _, batched := range arms {
		sched := core.SchedulerParams{}
		if batched {
			sched = throughputSched
		}
		e, err := open(sched)
		if err != nil {
			return nil, err
		}
		if !ingested {
			for i := range objs {
				if _, err := e.Ingest(objs[i], nil); err != nil {
					e.Close()
					return nil, fmt.Errorf("experiments: ingest %s: %w", objs[i].Key, err)
				}
			}
			ingested = true
		}
		for _, c := range concs {
			row, err := measureClosedLoop(e, queries, c, perClient, 20, batched)
			if err != nil {
				e.Close()
				return nil, err
			}
			rows = append(rows, row)
		}
		if err := e.Close(); err != nil {
			return nil, err
		}
	}

	// Speedup relative to the serial baseline: the unbatched single-client
	// arm (with -batch there is no baseline and the column stays zero).
	for _, r := range rows {
		if !r.Batched && r.Concurrency == 1 && r.QPS > 0 {
			for i := range rows {
				rows[i].SpeedupVsSerial = rows[i].QPS / r.QPS
			}
			break
		}
	}
	return rows, nil
}

// measureClosedLoop runs `clients` goroutines, each issuing `perClient`
// Filtering-mode queries back to back, and condenses the run into one row.
func measureClosedLoop(e *core.Engine, queries []object.Object, clients, perClient, k int, batched bool) (ThroughputRow, error) {
	reg := e.Telemetry()
	batches0 := reg.Value("ferret_batches_total")
	coalesced0 := reg.Value("ferret_queries_coalesced_total")

	lats := make([][]float64, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			secs := make([]float64, 0, perClient)
			opt := core.QueryOptions{Mode: core.Filtering, K: k, Filter: speedFilter}
			for i := 0; i < perClient; i++ {
				q := queries[(c*perClient+i)%len(queries)]
				t0 := time.Now()
				if _, err := e.Search(context.TODO(), q, opt); err != nil {
					errs[c] = err
					return
				}
				secs = append(secs, time.Since(t0).Seconds())
			}
			lats[c] = secs
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return ThroughputRow{}, err
		}
	}
	var all []float64
	for _, s := range lats {
		all = append(all, s...)
	}
	row := ThroughputRow{
		Concurrency: clients,
		Batched:     batched,
		Queries:     len(all),
		WallSec:     wall,
		Latency:     summarizeLatencies(all),
		Batches:     int64(reg.Value("ferret_batches_total") - batches0),
		Coalesced:   int64(reg.Value("ferret_queries_coalesced_total") - coalesced0),
	}
	if wall > 0 {
		row.QPS = float64(len(all)) / wall
	}
	// The summary's QPS field is the serial sum-of-latency rate, which
	// double-counts overlapped time under concurrency; the closed-loop
	// wall-clock rate is the one that means "served queries per second".
	row.Latency.QPS = row.QPS
	if row.Batches > 0 {
		row.MeanBatchSize = float64(row.Queries) / float64(row.Batches)
	}
	return row, nil
}

// FprintThroughput renders the sweep as a table.
func FprintThroughput(w io.Writer, rows []ThroughputRow) {
	fmt.Fprintf(w, "%8s %8s %8s %10s %10s %10s %10s %9s %9s\n",
		"Clients", "Batched", "Queries", "QPS", "p50(ms)", "p90(ms)", "p99(ms)", "AvgBatch", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %8v %8d %10.1f %10.2f %10.2f %10.2f %9.2f %8.2fx\n",
			r.Concurrency, r.Batched, r.Queries, r.QPS,
			r.Latency.P50Sec*1e3, r.Latency.P90Sec*1e3, r.Latency.P99Sec*1e3,
			r.MeanBatchSize, r.SpeedupVsSerial)
	}
}
