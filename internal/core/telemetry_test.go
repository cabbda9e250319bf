package core

import (
	"fmt"
	"sync"
	"testing"

	"ferret/internal/attr"
	"ferret/internal/object"
	"ferret/internal/sketch"
	"ferret/internal/telemetry"
)

// telemetryEngine builds an engine over a small clustered dataset.
func telemetryEngine(t *testing.T, n int) *Engine {
	t.Helper()
	const d = 8
	min := make([]float32, d)
	max := make([]float32, d)
	for i := range max {
		max[i] = 1
	}
	e, err := Open(Config{
		Dir:    t.TempDir(),
		Sketch: sketch.Params{N: 64, K: 1, Min: min, Max: max, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for i := 0; i < n; i++ {
		if _, err := e.Ingest(testObj(fmt.Sprintf("obj/%d", i), i, d), nil); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func testObj(key string, seed, d int) object.Object {
	vec := make([]float32, d)
	for j := range vec {
		vec[j] = float32((seed*7+j*3)%100) / 100
	}
	return object.Single(key, vec)
}

func TestQueryRecordsStageHistograms(t *testing.T) {
	e := telemetryEngine(t, 40)
	reg := e.Telemetry()
	q := testObj("query", 5, 8)
	for _, mode := range []Mode{Filtering, BruteForceOriginal, BruteForceSketch} {
		if _, err := runQuery(e, q, QueryOptions{Mode: mode, K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	// The filter and rank stages must be observed separately, with the
	// sketch-build stage alongside.
	for _, name := range []string{
		"ferret_query_stage_seconds_sketch_count",
		"ferret_query_stage_seconds_filter_count",
		"ferret_query_stage_seconds_rank_count",
	} {
		if v := reg.Value(name); v == 0 {
			t.Errorf("%s = 0, want > 0", name)
		}
	}
	if v := reg.Value("ferret_query_total"); v != 3 {
		t.Errorf("ferret_query_total = %g, want 3", v)
	}
	if v := reg.Value("ferret_filter_objects_scanned_total"); v == 0 {
		t.Error("filter scanned nothing")
	}
	if v := reg.Value("ferret_filter_candidates_total"); v == 0 {
		t.Error("no candidates recorded")
	}
	if v := reg.Value("ferret_rank_distance_evals_total"); v == 0 {
		t.Error("no distance evaluations recorded")
	}
	if v := reg.Value("ferret_inflight_queries"); v != 0 {
		t.Errorf("inflight = %g after queries returned", v)
	}
	// Rank stage observed exactly once per query.
	if v := reg.Value("ferret_query_stage_seconds_rank_count"); v != 3 {
		t.Errorf("rank stage count = %g, want 3", v)
	}
}

func TestQueryErrorCounted(t *testing.T) {
	e := telemetryEngine(t, 4)
	if _, err := runQuery(e, testObj("q", 1, 8), QueryOptions{Mode: Mode(99)}); err == nil {
		t.Fatal("bad mode must error")
	}
	if v := e.Telemetry().Value("ferret_query_errors_total"); v != 1 {
		t.Fatalf("query errors = %g, want 1", v)
	}
	if v := e.Telemetry().Value("ferret_query_total"); v != 0 {
		t.Fatalf("query total = %g, want 0", v)
	}
}

func TestConcurrentQueryTelemetry(t *testing.T) {
	// Satellite: goroutine-hammering of per-stage recording during
	// concurrent Query, run under -race: several querying goroutines share
	// the engine.
	e := telemetryEngine(t, 60)
	const workers, queriesEach = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				mode := []Mode{Filtering, BruteForceSketch, BruteForceOriginal}[i%3]
				if _, err := runQuery(e, testObj("q", w*100+i, 8), QueryOptions{Mode: mode, K: 3}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	reg := e.Telemetry()
	if v := reg.Value("ferret_query_total"); v != workers*queriesEach {
		t.Fatalf("query total = %g, want %d", v, workers*queriesEach)
	}
	if v := reg.Value("ferret_inflight_queries"); v != 0 {
		t.Fatalf("inflight = %g", v)
	}
	wantStage := float64(workers * queriesEach)
	if v := reg.Value("ferret_query_stage_seconds_rank_count"); v != wantStage {
		t.Fatalf("rank stage observations = %g, want %g", v, wantStage)
	}
	if v := reg.Value("ferret_query_seconds_count"); v != wantStage {
		t.Fatalf("query histogram count = %g, want %g", v, wantStage)
	}
}

func TestStatConsistentAfterConcurrentIngestDelete(t *testing.T) {
	// Satellite: Stat() reads gauges, so it must converge to the exact
	// ground truth once concurrent Ingest/Delete traffic settles, and
	// must be safe to call while that traffic runs.
	e := telemetryEngine(t, 0)
	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d/%d", w, i)
				id, err := e.Ingest(testObj(key, w*1000+i, 8), attr.Attrs{"w": fmt.Sprint(w)})
				if err != nil {
					t.Error(err)
					return
				}
				_ = e.Stat() // reader racing with writers
				if i%3 == 0 {
					if err := e.Delete(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // dedicated Stat hammer
		for {
			select {
			case <-done:
				return
			default:
				_ = e.Stat()
				_ = e.Count()
			}
		}
	}()
	wg.Wait()
	close(done)

	deleted := workers * ((perWorker + 2) / 3)
	live := workers*perWorker - deleted
	st := e.Stat()
	if st.Objects != live {
		t.Fatalf("Stat().Objects = %d, want %d", st.Objects, live)
	}
	if st.Deleted != deleted {
		t.Fatalf("Stat().Deleted = %d, want %d", st.Deleted, deleted)
	}
	if st.Segments != live { // single-segment objects
		t.Fatalf("Stat().Segments = %d, want %d", st.Segments, live)
	}
	if st.SketchBytes != live*sketch.Words(64)*8 {
		t.Fatalf("Stat().SketchBytes = %d", st.SketchBytes)
	}
	if e.Count() != live {
		t.Fatalf("Count() = %d, want %d", e.Count(), live)
	}

	// Compact must zero the tombstone gauge and preserve the live counts.
	e.Compact()
	st = e.Stat()
	if st.Deleted != 0 || st.Objects != live || st.Segments != live {
		t.Fatalf("after Compact: %+v", st)
	}
	if v := e.Telemetry().Value("ferret_compact_total"); v != 1 {
		t.Fatalf("compact counter = %g", v)
	}
}

func TestSharedRegistryAcrossEngines(t *testing.T) {
	// Two engines over one registry (the process-wide /metrics shape)
	// must not collide on registration and must aggregate counts.
	reg := telemetry.NewRegistry()
	const d = 4
	min := make([]float32, d)
	max := []float32{1, 1, 1, 1}
	for i := 0; i < 2; i++ {
		e, err := Open(Config{
			Dir:       t.TempDir(),
			Sketch:    sketch.Params{N: 32, K: 1, Min: min, Max: max, Seed: 3},
			Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Ingest(object.Single("x", []float32{0.1, 0.2, 0.3, 0.4}), nil); err != nil {
			t.Fatal(err)
		}
		e.Close()
	}
	if v := reg.Value("ferret_ingest_total"); v != 2 {
		t.Fatalf("shared ingest total = %g, want 2", v)
	}
}
