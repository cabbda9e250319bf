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

// IngestRow is one arm of the mixed read/write benchmark: closed-loop query
// clients against the segmented engine, first read-only, then with a
// sustained-rate ingest stream committing through the bounded queue while
// the background compactor seals and merges underneath. The headline number
// is QPSPenalty on the mixed arm — the fraction of read-only throughput the
// write stream costs, which the segment pipeline is designed to keep small
// (no stop-the-world compaction).
type IngestRow struct {
	Arm        string         `json:"arm"` // "read-only" or "mixed"
	Clients    int            `json:"clients"`
	Queries    int            `json:"queries"`
	WallSec    float64        `json:"wall_sec"`
	QPS        float64        `json:"qps"`
	Latency    LatencySummary `json:"latency"`
	IngestRate float64        `json:"ingest_rate,omitempty"` // achieved objects/sec
	Ingested   int            `json:"ingested,omitempty"`
	Seals      int64          `json:"seals,omitempty"`
	Merges     int64          `json:"merges,omitempty"`
	Rejected   int64          `json:"rejected,omitempty"`
	QPSPenalty float64        `json:"qps_penalty,omitempty"` // (avg readonly - mixed) / avg readonly
}

// ingestStreamRate paces the write stream (objects per second). The regime
// under test is a steady acquisition feed — seals and merges must happen
// during the measurement window — not a bulk load saturating the write
// lock. Each write costs sketch-construction CPU that on a small machine
// comes straight out of the query budget, so the rate is chosen to model a
// brisk scanner (several thousand objects per minute), not peak write
// bandwidth.
const ingestStreamRate = 100.0

// Ingest measures query throughput under sustained ingest on the
// mixed-shape speed corpus. The corpus is ingested into a segmented engine
// with a background compactor on a short interval, a read-only closed loop
// sets the baseline, then the same loop repeats while a paced writer
// streams fresh objects through the bounded ingest queue. Both arms run
// for a fixed wall-clock window (not a fixed query count) so the write
// side's seal/merge cadence is machine-independent: the tail capacity is
// sized to 1/8 of the objects the stream delivers per window, guaranteeing
// several seals — and therefore merge pressure — inside the measurement.
func Ingest(scale Scale) ([]IngestRow, error) {
	dt := mixedShapeType()
	objs := synth.MixedShapeObjects(scale.MixedShapeN, 301)
	queries := synth.MixedShapeObjects(64, 909)
	armDur := time.Duration(scale.SpeedQueries) * time.Second
	perWindow := int(ingestStreamRate * armDur.Seconds())
	stream := synth.MixedShapeObjects(2*perWindow, 555)
	for i := range stream {
		// The stream generator reuses the corpus key space; disambiguate so
		// the writes are inserts, not duplicate-key failures.
		stream[i].Key = "live-" + stream[i].Key + fmt.Sprintf("-%06d", i)
	}
	const clients = 4

	sealAt := perWindow / 8
	if sealAt < 64 {
		sealAt = 64
	}
	dir, err := os.MkdirTemp("", "ferret-exp-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e, err := core.Open(core.Config{
		Dir:           dir,
		Sketch:        dt.sketchCfg(dt.sketchBits),
		RankThreshold: dt.rankThresh,
		Store:         kvstore.Options{Sync: kvstore.SyncPeriodic, SyncInterval: time.Minute},
		Segments: core.SegmentParams{
			SealEntries: sealAt,
			Interval:    25 * time.Millisecond,
			Pace:        500 * time.Microsecond,
		},
		// Two drain workers: the stream commits concurrently, so the arm
		// also exercises the ingest path's order-independence (the queue
		// serializes commits but not sketch construction).
		Ingest: core.IngestParams{Depth: 256, Workers: 2},
	})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	for i := range objs {
		if _, err := e.Ingest(objs[i], nil); err != nil {
			return nil, fmt.Errorf("experiments: ingest %s: %w", objs[i].Key, err)
		}
	}

	// The stream grows the corpus while the mixed arm runs, so a single
	// before-baseline would charge the write stream for scan work that any
	// bigger corpus costs. Bracket instead: read-only before, mixed,
	// read-only after; the two baselines straddle the mixed arm's average
	// corpus size and their mean is the fair reference for the penalty —
	// which then measures interference (lock holds, seal/merge swaps,
	// compaction CPU), not growth.
	pre, err := measureIngestArm(e, queries, clients, armDur, nil)
	if err != nil {
		return nil, err
	}
	pre.Arm = "read-only"

	mixed, err := measureIngestArm(e, queries, clients, armDur, stream)
	if err != nil {
		return nil, err
	}
	mixed.Arm = "mixed"

	post, err := measureIngestArm(e, queries, clients, armDur, nil)
	if err != nil {
		return nil, err
	}
	post.Arm = "read-only+grown"

	if ref := (pre.QPS + post.QPS) / 2; ref > 0 {
		mixed.QPSPenalty = (ref - mixed.QPS) / ref
	}
	return []IngestRow{pre, mixed, post}, nil
}

// measureIngestArm runs the closed-loop query clients for the wall-clock
// window dur; with a non-nil stream it also runs the paced writer for the
// duration of the loop and folds the write-side counters into the row.
func measureIngestArm(e *core.Engine, queries []object.Object, clients int, dur time.Duration, stream []object.Object) (IngestRow, error) {
	reg := e.Telemetry()
	seals0 := reg.Value("ferret_seal_total")
	merges0 := reg.Value("ferret_merge_total")
	rejected0 := reg.Value("ferret_ingest_rejected_total")

	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	ingested := 0
	var writerErr error
	if stream != nil {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			gap := time.Duration(float64(time.Second) / ingestStreamRate)
			next := time.Now()
			for _, o := range stream {
				select {
				case <-stop:
					return
				default:
				}
				if now := time.Now(); next.After(now) {
					time.Sleep(next.Sub(now))
				}
				next = next.Add(gap)
				if _, err := e.IngestQueued(context.Background(), o, nil); err != nil {
					writerErr = err
					return
				}
				ingested++
			}
		}()
	}

	lats := make([][]float64, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var secs []float64
			opt := core.QueryOptions{Mode: core.Filtering, K: 20, Filter: speedFilter}
			for i := 0; time.Now().Before(deadline); i++ {
				q := queries[(c+i*clients)%len(queries)]
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
	close(stop)
	writerWG.Wait()
	for _, err := range errs {
		if err != nil {
			return IngestRow{}, err
		}
	}
	if writerErr != nil {
		return IngestRow{}, fmt.Errorf("experiments: ingest stream: %w", writerErr)
	}

	var all []float64
	for _, s := range lats {
		all = append(all, s...)
	}
	row := IngestRow{
		Clients:  clients,
		Queries:  len(all),
		WallSec:  wall,
		Latency:  summarizeLatencies(all),
		Ingested: ingested,
		Seals:    int64(reg.Value("ferret_seal_total") - seals0),
		Merges:   int64(reg.Value("ferret_merge_total") - merges0),
		Rejected: int64(reg.Value("ferret_ingest_rejected_total") - rejected0),
	}
	if wall > 0 {
		row.QPS = float64(len(all)) / wall
		row.IngestRate = float64(ingested) / wall
	}
	row.Latency.QPS = row.QPS
	return row, nil
}

// FprintIngest renders the two arms as a table.
func FprintIngest(w io.Writer, rows []IngestRow) {
	fmt.Fprintf(w, "%10s %8s %8s %10s %10s %10s %9s %6s %6s %9s\n",
		"Arm", "Clients", "Queries", "QPS", "p50(ms)", "p99(ms)", "Ingest/s", "Seals", "Merges", "Penalty")
	for _, r := range rows {
		fmt.Fprintf(w, "%10s %8d %8d %10.1f %10.2f %10.2f %9.1f %6d %6d %8.1f%%\n",
			r.Arm, r.Clients, r.Queries, r.QPS,
			r.Latency.P50Sec*1e3, r.Latency.P99Sec*1e3,
			r.IngestRate, r.Seals, r.Merges, r.QPSPenalty*100)
	}
}
