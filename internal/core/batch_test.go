package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ferret/internal/attr"
	"ferret/internal/object"
)

// TestBatchMatchesSerial: SearchBatch must return exactly what Q independent
// Search calls return — same IDs, same distances, same Degraded flags — over
// randomized corpora, batch sizes, and query shapes; the comparison demands
// byte-identical results, not just tie-equivalence.
func TestBatchMatchesSerial(t *testing.T) {
	const d = 8
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4; trial++ {
		nseg := 2 + trial%3
		cfg := testConfig(t.TempDir(), d)
		e := openEngine(t, cfg)
		ingestClusters(t, e, 5+trial, 4, d, nseg)
		if trial%2 == 1 {
			// Exercise the tombstone-aware shared scan too.
			if err := e.Delete(object.ID(1 + trial)); err != nil {
				t.Fatal(err)
			}
		}
		for _, nq := range []int{1, 2, 3, 8, 11} {
			queries := make([]object.Object, nq)
			for i := range queries {
				queries[i] = clusterObject(fmt.Sprintf("q%d", i), rng.Intn(8), d, nseg, 0.02, rng)
			}
			opt := QueryOptions{K: 1 + rng.Intn(7)}
			answers, errs := e.SearchBatch(context.Background(), queries, opt)
			for i, q := range queries {
				if errs[i] != nil {
					t.Fatalf("trial %d nq %d query %d: batch error %v", trial, nq, i, errs[i])
				}
				want, err := e.Search(context.Background(), q, opt)
				if err != nil {
					t.Fatal(err)
				}
				got := answers[i]
				if got.Degraded != want.Degraded || len(got.Results) != len(want.Results) {
					t.Fatalf("trial %d nq %d query %d: batch %+v serial %+v", trial, nq, i, got, want)
				}
				for r := range want.Results {
					if got.Results[r] != want.Results[r] {
						t.Fatalf("trial %d nq %d query %d rank %d: batch %v serial %v",
							trial, nq, i, r, got.Results[r], want.Results[r])
					}
				}
			}
		}
	}
}

// TestBatchDegradedMatchesSerial: a query whose budget has already expired
// must degrade identically through the shared scan and the serial pipeline
// (filter completes, rank returns sketch-ordered results, Degraded set).
func TestBatchDegradedMatchesSerial(t *testing.T) {
	const d, nseg = 8, 3
	e := openEngine(t, testConfig(t.TempDir(), d))
	ingestClusters(t, e, 6, 5, d, nseg)
	rng := rand.New(rand.NewSource(5))
	queries := make([]object.Object, 4)
	for i := range queries {
		queries[i] = clusterObject(fmt.Sprintf("q%d", i), i, d, nseg, 0.02, rng)
	}
	opt := QueryOptions{K: 5, Budget: time.Nanosecond}
	answers, errs := e.SearchBatch(context.Background(), queries, opt)
	for i, q := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := e.Search(context.Background(), q, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := answers[i]
		if !got.Degraded || got.Degraded != want.Degraded {
			t.Fatalf("query %d: degraded batch=%v serial=%v", i, got.Degraded, want.Degraded)
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("query %d: %d vs %d results", i, len(got.Results), len(want.Results))
		}
		for r := range want.Results {
			if got.Results[r] != want.Results[r] {
				t.Fatalf("query %d rank %d: batch %v serial %v", i, r, got.Results[r], want.Results[r])
			}
		}
	}
}

// TestBatchCancelled: a cancelled context fails the batched query with the
// context error, exactly as the serial path does.
func TestBatchCancelled(t *testing.T) {
	const d, nseg = 8, 2
	e := openEngine(t, testConfig(t.TempDir(), d))
	ingestClusters(t, e, 4, 4, d, nseg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(7))
	queries := []object.Object{
		clusterObject("qa", 0, d, nseg, 0.02, rng),
		clusterObject("qb", 1, d, nseg, 0.02, rng),
	}
	_, errs := e.SearchBatch(ctx, queries, QueryOptions{K: 3})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("query %d: err %v, want context.Canceled", i, err)
		}
	}
}

// TestBatchableRouting: SearchBatch must route the options a shared scan
// cannot serve — the two brute-force modes and a Restrict set — through one
// Search each, and every answer must equal the Search answer.
func TestBatchableRouting(t *testing.T) {
	const d, nseg = 8, 2
	e := openEngine(t, testConfig(t.TempDir(), d))
	ids := ingestClusters(t, e, 3, 3, d, nseg)

	rng := rand.New(rand.NewSource(13))
	queries := []object.Object{
		clusterObject("qa", 0, d, nseg, 0.02, rng),
		clusterObject("qb", 1, d, nseg, 0.02, rng),
	}
	restrict := map[object.ID]bool{ids[0][0]: true, ids[1][0]: true}
	for _, opt := range []QueryOptions{
		{Mode: BruteForceOriginal, K: 2},
		{Mode: BruteForceSketch, K: 2},
		{K: 2, Restrict: restrict},
	} {
		if e.batchable(&opt) {
			t.Fatalf("opt %+v unexpectedly batchable", opt)
		}
		answers, errs := e.SearchBatch(context.Background(), queries, opt)
		for i, q := range queries {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			want, err := e.Search(context.Background(), q, opt)
			if err != nil {
				t.Fatal(err)
			}
			got := answers[i]
			if len(got.Results) == 0 || len(got.Results) != len(want.Results) {
				t.Fatalf("opt %+v query %d: batch %+v serial %+v", opt, i, got, want)
			}
			for r := range want.Results {
				if got.Results[r] != want.Results[r] {
					t.Fatalf("opt %+v query %d rank %d: batch %v serial %v", opt, i, r, got.Results[r], want.Results[r])
				}
			}
		}
	}
}

// TestBatchTelemetry reads every batch metric the README and DESIGN name:
// a SearchBatch of 11 queries runs as two groups (8 + 3), each query waits
// once behind its call's earlier groups, and a plain Search — a batch of one
// on its caller's goroutine — records no group at all.
func TestBatchTelemetry(t *testing.T) {
	const d, nseg = 8, 2
	e := openEngine(t, testConfig(t.TempDir(), d))
	ingestClusters(t, e, 4, 4, d, nseg)
	rng := rand.New(rand.NewSource(17))
	queries := make([]object.Object, 11)
	for i := range queries {
		queries[i] = clusterObject(fmt.Sprintf("q%d", i), i%4, d, nseg, 0.02, rng)
	}
	if _, errs := e.SearchBatch(context.Background(), queries, QueryOptions{K: 3}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if _, err := e.Search(context.Background(), queries[0], QueryOptions{K: 3}); err != nil {
		t.Fatal(err)
	}
	reg := e.Telemetry()
	for name, want := range map[string]float64{
		"ferret_batches_total":                  2,
		"ferret_batch_size_count":               2,
		"ferret_batch_size_sum":                 11,
		"ferret_batch_queue_wait_seconds_count": 11,
		"ferret_query_total":                    12,
	} {
		if got := reg.Value(name); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	reg.Each(func(name string, _ float64) {
		if strings.HasPrefix(name, "ferret_queries_coalesced") {
			t.Errorf("metric %s is registered, but Search calls are never coalesced", name)
		}
	})
}

// stressConfig is a default engine — background compactor running — with
// the Hamming index on and a small tail, so concurrent writers seal and merge
// segments under the readers.
func stressConfig(dir string, d int) Config {
	cfg := testConfig(dir, d)
	cfg.Segments = SegmentParams{SealEntries: 16, Interval: 10 * time.Millisecond}
	cfg.HIndex = HIndexParams{Enable: true}
	return cfg
}

// TestConcurrentSearchStress hammers Search, SearchBatch, Ingest, and Delete
// from many goroutines while seals and background merges publish new views;
// run under -race this is the view/pool/compactor synchronization test.
// Correctness of the answers is covered elsewhere — here every operation
// just has to finish cleanly.
func TestConcurrentSearchStress(t *testing.T) {
	const d, nseg = 8, 2
	e := openEngine(t, stressConfig(t.TempDir(), d))
	ingestClusters(t, e, 4, 4, d, nseg)
	publishes := e.Telemetry().Value("ferret_view_publish_total")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	time.AfterFunc(300*time.Millisecond, func() { close(stop) })
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := clusterObject(fmt.Sprintf("g%dq%d", g, i), rng.Intn(4), d, nseg, 0.02, rng)
				switch i % 3 {
				case 0:
					if _, err := e.Search(context.Background(), q, QueryOptions{K: 3}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					qs := []object.Object{q, q}
					_, errs := e.SearchBatch(context.Background(), qs, QueryOptions{K: 3})
					for _, err := range errs {
						if err != nil {
							t.Error(err)
							return
						}
					}
				case 2:
					o := clusterObject(fmt.Sprintf("g%din%d", g, i), rng.Intn(4), d, nseg, 0.02, rng)
					id, err := e.Ingest(o, attr.Attrs{})
					if err != nil {
						t.Error(err)
						return
					}
					if i%6 == 2 {
						if err := e.Delete(id); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if e.Telemetry().Value("ferret_view_publish_total") == publishes {
		t.Fatal("no view was published: the readers never raced a writer")
	}
}

// TestCloseLeavesNoGoroutines: after Close, the rank pool, the background
// compactor and the ingest queue's drain workers are gone, and queries that
// race Close return instead of hanging.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	const d, nseg = 8, 2
	before := runtime.NumGoroutine()
	cfg := stressConfig(t.TempDir(), d)
	cfg.Ingest = IngestParams{Workers: 2, Depth: 8}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestClusters(t, e, 3, 3, d, nseg)

	rng := rand.New(rand.NewSource(3))
	queries := make([]object.Object, 8)
	for i := range queries {
		queries[i] = clusterObject(fmt.Sprintf("q%d", i), i%3, d, nseg, 0.02, rng)
	}
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Racing Close, a query may answer or fail; it must return.
			if i%2 == 0 {
				e.Search(context.Background(), queries[i], QueryOptions{K: 3})
			} else {
				e.SearchBatch(context.Background(), queries[:i+1], QueryOptions{K: 3})
			}
		}(i)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d before, %d after close\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}
