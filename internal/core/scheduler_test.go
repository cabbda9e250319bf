package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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

// TestSchedulerCoalesces: with a coalescing window configured, concurrent
// Search calls share scans — the coalesced counter must move, and every
// caller still gets serial-identical results.
func TestSchedulerCoalesces(t *testing.T) {
	const d, nseg = 8, 3
	cfg := testConfig(t.TempDir(), d)
	cfg.Scheduler = SchedulerParams{Window: 2 * time.Millisecond, MaxBatch: 8}
	e := openEngine(t, cfg)
	ingestClusters(t, e, 6, 5, d, nseg)

	serialCfg := testConfig(t.TempDir(), d)
	serial := openEngine(t, serialCfg)
	ingestClusters(t, serial, 6, 5, d, nseg)

	rng := rand.New(rand.NewSource(11))
	queries := make([]object.Object, 16)
	for i := range queries {
		queries[i] = clusterObject(fmt.Sprintf("q%d", i), i%6, d, nseg, 0.02, rng)
	}
	opt := QueryOptions{K: 4}
	var wg sync.WaitGroup
	answers := make([]Answer, len(queries))
	errs := make([]error, len(queries))
	for round := 0; round < 4; round++ {
		for i := range queries {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				answers[i], errs[i] = e.Search(context.Background(), queries[i], opt)
			}(i)
		}
		wg.Wait()
		for i := range queries {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			want, err := serial.Search(context.Background(), queries[i], opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(answers[i].Results) != len(want.Results) {
				t.Fatalf("query %d: %d vs %d results", i, len(answers[i].Results), len(want.Results))
			}
			for r := range want.Results {
				if answers[i].Results[r] != want.Results[r] {
					t.Fatalf("query %d rank %d: coalesced %v serial %v",
						i, r, answers[i].Results[r], want.Results[r])
				}
			}
		}
	}
	// 64 concurrent queries against a 2ms window on one dispatcher: at least
	// some must have shared a scan.
	if got := testCounterValue(t, e, "ferret_queries_coalesced_total"); got == 0 {
		t.Fatal("no queries were coalesced")
	}
	if got := testCounterValue(t, e, "ferret_batches_total"); got == 0 {
		t.Fatal("no batches recorded")
	}
}

// testCounterValue reads one counter from the engine registry by its
// flattened name.
func testCounterValue(t *testing.T, e *Engine, name string) int64 {
	t.Helper()
	return int64(e.Telemetry().Value(name))
}

// TestConcurrentSearchStress hammers Search, SearchBatch, Ingest, and Delete
// from many goroutines with the scheduler enabled; run under -race this is
// the scheduler/pool synchronization test. Correctness of the answers is
// covered elsewhere — here every operation just has to finish cleanly.
func TestConcurrentSearchStress(t *testing.T) {
	const d, nseg = 8, 2
	cfg := testConfig(t.TempDir(), d)
	cfg.Scheduler = SchedulerParams{Window: 500 * time.Microsecond, MaxBatch: 4}
	e := openEngine(t, cfg)
	ingestClusters(t, e, 4, 4, d, nseg)

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
}

// TestCloseDrainsScheduler: Close must fail queued queries with
// ErrEngineClosed rather than stranding their callers, and leave no engine
// goroutines behind.
func TestCloseDrainsScheduler(t *testing.T) {
	const d, nseg = 8, 2
	before := runtime.NumGoroutine()
	cfg := testConfig(t.TempDir(), d)
	cfg.Scheduler = SchedulerParams{Window: time.Hour, MaxBatch: 64} // park queries in the window
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestClusters(t, e, 3, 3, d, nseg)

	rng := rand.New(rand.NewSource(3))
	var wg sync.WaitGroup
	results := make([]error, 8)
	queries := make([]object.Object, len(results))
	for i := range queries {
		queries[i] = clusterObject(fmt.Sprintf("q%d", i), i%3, d, nseg, 0.02, rng)
	}
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = e.Search(context.Background(), queries[i], QueryOptions{K: 3})
		}(i)
	}
	// Let the queries reach the scheduler queue, then shut down under them.
	time.Sleep(20 * time.Millisecond)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range results {
		// The batch collecting when stopc closed is still executed; queries
		// behind it fail closed. Either way the caller returned promptly.
		if err != nil && !errors.Is(err, ErrEngineClosed) {
			t.Fatalf("query %d: err %v", i, err)
		}
	}
	// New queries after Close fail immediately.
	q := clusterObject("late", 0, d, nseg, 0.02, rng)
	if _, err := e.Search(context.Background(), q, QueryOptions{K: 3}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("post-close Search: err %v, want ErrEngineClosed", err)
	}
	// All pool workers and the dispatcher must be gone.
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

// TestBatchableRouting: modes and options the shared scan cannot serve must
// fall back to the serial pipeline and still answer correctly.
func TestBatchableRouting(t *testing.T) {
	const d, nseg = 8, 2
	cfg := testConfig(t.TempDir(), d)
	cfg.Scheduler = SchedulerParams{Window: time.Millisecond}
	e := openEngine(t, cfg)
	ids := ingestClusters(t, e, 3, 3, d, nseg)

	rng := rand.New(rand.NewSource(13))
	q := clusterObject("q", 0, d, nseg, 0.02, rng)
	restrict := map[object.ID]bool{ids[0][0]: true}
	for _, opt := range []QueryOptions{
		{Mode: BruteForceOriginal, K: 2},
		{Mode: BruteForceSketch, K: 2},
		{K: 2, Restrict: restrict},
	} {
		if e.batchable(&opt) {
			t.Fatalf("opt %+v unexpectedly batchable", opt)
		}
		ans, err := e.Search(context.Background(), q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Results) == 0 {
			t.Fatalf("opt %+v returned no results", opt)
		}
	}
}
