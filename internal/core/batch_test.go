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
	"ferret/internal/telemetry/trace"
)

// sameAnswer fails unless a batch answer equals the serial one: same
// Degraded flag, same results byte for byte (IDs, keys, distances).
func sameAnswer(t *testing.T, label string, got, want Answer) {
	t.Helper()
	if got.Degraded != want.Degraded || len(got.Results) != len(want.Results) {
		t.Fatalf("%s: batch %+v serial %+v", label, got, want)
	}
	for r := range want.Results {
		if got.Results[r] != want.Results[r] {
			t.Fatalf("%s rank %d: batch %v serial %v", label, r, got.Results[r], want.Results[r])
		}
	}
}

// serialAnswers runs each query through its own Search call. ForceTrace makes
// the queries uncacheable, so the reference always runs the pipeline — a
// cached batch answer is checked against a computed one.
func serialAnswers(t *testing.T, e *Engine, queries []object.Object, opt QueryOptions) []Answer {
	t.Helper()
	opt.ForceTrace = true
	want := make([]Answer, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = e.Search(context.Background(), q, opt); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestBatchMatchesSerial: SearchBatch must return exactly what independent
// Search calls return — same IDs, same distances, same Degraded flags — over
// randomized corpora, batch sizes (up to 33, more than GOMAXPROCS), query
// shapes and modes, with the result cache on (hit answers included) and beside a
// concurrent Ingest/Delete writer; the comparison demands byte-identical
// results, not just tie-equivalence.
func TestBatchMatchesSerial(t *testing.T) {
	const d = 8
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4; trial++ {
		nseg := 2 + trial%3
		cfg := testConfig(t.TempDir(), d)
		e := openEngine(t, cfg)
		ingestClusters(t, e, 5+trial, 4, d, nseg)
		if trial%2 == 1 {
			// Exercise tombstones too.
			if err := e.Delete(object.ID(1 + trial)); err != nil {
				t.Fatal(err)
			}
		}
		for _, nq := range []int{1, 2, 3, 8, 11, 33} {
			queries := make([]object.Object, nq)
			for i := range queries {
				queries[i] = clusterObject(fmt.Sprintf("q%d", i), rng.Intn(8), d, nseg, 0.02, rng)
			}
			opt := QueryOptions{K: 1 + rng.Intn(7)}
			answers, errs := e.SearchBatch(context.Background(), queries, opt)
			want := serialAnswers(t, e, queries, opt)
			for i := range queries {
				if errs[i] != nil {
					t.Fatalf("trial %d nq %d query %d: batch error %v", trial, nq, i, errs[i])
				}
				sameAnswer(t, fmt.Sprintf("trial %d nq %d query %d", trial, nq, i), answers[i], want[i])
			}
		}
		// The brute-force modes and a Restrict set take the same route.
		queries := make([]object.Object, 5)
		for i := range queries {
			queries[i] = clusterObject(fmt.Sprintf("m%d", i), rng.Intn(8), d, nseg, 0.02, rng)
		}
		for _, opt := range []QueryOptions{
			{Mode: BruteForceOriginal, K: 3},
			{Mode: BruteForceSketch, K: 3},
			{K: 3, Restrict: map[object.ID]bool{1: true, 3: true, 5: true, 8: true}},
		} {
			answers, errs := e.SearchBatch(context.Background(), queries, opt)
			want := serialAnswers(t, e, queries, opt)
			for i := range queries {
				if errs[i] != nil {
					t.Fatalf("trial %d %v query %d: batch error %v", trial, opt.Mode, i, errs[i])
				}
				sameAnswer(t, fmt.Sprintf("trial %d %v query %d", trial, opt.Mode, i), answers[i], want[i])
			}
		}
	}

	t.Run("cache", func(t *testing.T) {
		cfg := testConfig(t.TempDir(), d)
		cfg.ResultCache = ResultCacheParams{Enable: true}
		e := openEngine(t, cfg)
		ingestClusters(t, e, 6, 4, d, 3)
		// Six distinct query contents, each twice in the batch: the second
		// copy hits the cache or shares the first's computation.
		queries := make([]object.Object, 12)
		for i := range queries {
			queries[i] = clusterObject(fmt.Sprintf("q%d", i), i%6, d, 3, 0.02, rand.New(rand.NewSource(int64(i%6))))
		}
		opt := QueryOptions{K: 4}
		want := serialAnswers(t, e, queries, opt)
		for round := 0; round < 2; round++ {
			answers, errs := e.SearchBatch(context.Background(), queries, opt)
			for i := range queries {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if round == 1 && answers[i].Cache != CacheHit {
					t.Fatalf("round 1 query %d: cache %q, want a hit", i, answers[i].Cache)
				}
				sameAnswer(t, fmt.Sprintf("round %d query %d", round, i), answers[i], want[i])
			}
		}
	})

	t.Run("writer", func(t *testing.T) {
		// The writer ingests and deletes objects outside the queries'
		// Restrict set while seals and merges publish new views under the
		// batches, so every answer must stay what it was before it started.
		e := openEngine(t, stressConfig(t.TempDir(), d))
		ids := ingestClusters(t, e, 6, 6, d, 2)
		restrict := map[object.ID]bool{}
		for _, c := range ids {
			for _, id := range c {
				restrict[id] = true
			}
		}
		queries := make([]object.Object, 9)
		for i := range queries {
			queries[i] = clusterObject(fmt.Sprintf("q%d", i), i%6, d, 2, 0.02, rng)
		}
		opt := QueryOptions{K: 5, Restrict: restrict}
		want := serialAnswers(t, e, queries, opt)
		seals := e.Telemetry().Value("ferret_seal_total")

		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			wrng := rand.New(rand.NewSource(5))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id, err := e.Ingest(clusterObject(fmt.Sprintf("w%d", i), wrng.Intn(6), d, 2, 0.01, wrng), nil)
				if err == nil && i%2 == 1 {
					err = e.Delete(id)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
		// At least 20 batches, and on until the writer has sealed a tail.
		for round := 0; round < 20 || (e.Telemetry().Value("ferret_seal_total") == seals && round < 5000); round++ {
			answers, errs := e.SearchBatch(context.Background(), queries, opt)
			for i := range queries {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				sameAnswer(t, fmt.Sprintf("round %d query %d", round, i), answers[i], want[i])
			}
		}
		close(stop)
		<-done
		if e.Telemetry().Value("ferret_seal_total") == seals {
			t.Fatal("no tail was sealed: the batches never raced a seal")
		}
	})
}

// TestBatchIgnoresCallerTrace: every SearchBatch query records into its own
// engine-armed trace, whichever path it takes. With the caller's
// QueryOptions.Trace armed and ForceTrace set, a brute-force batch and a
// Restrict batch leave the caller's buffer without a span, and every answer
// carries a retained trace of its own.
func TestBatchIgnoresCallerTrace(t *testing.T) {
	const d, nseg = 8, 2
	e := openEngine(t, testConfig(t.TempDir(), d))
	ids := ingestClusters(t, e, 3, 3, d, nseg)
	rng := rand.New(rand.NewSource(13))
	queries := []object.Object{
		clusterObject("qa", 0, d, nseg, 0.02, rng),
		clusterObject("qb", 1, d, nseg, 0.02, rng),
		clusterObject("qc", 2, d, nseg, 0.02, rng),
	}
	restrict := map[object.ID]bool{ids[0][0]: true, ids[1][0]: true}
	for _, opt := range []QueryOptions{
		{Mode: BruteForceSketch, K: 2},
		{K: 2, Restrict: restrict},
	} {
		var caller trace.Active
		e.tracer.Begin(&caller, "caller")
		opt.Trace, opt.ForceTrace = &caller, true
		answers, errs := e.SearchBatch(context.Background(), queries, opt)
		if st := caller.Stages(); len(st) != 1 {
			t.Fatalf("%v batch recorded into the caller's trace: %v", opt.Mode, st)
		}
		callerID := caller.ID().String()
		caller.Finish()
		seen := map[string]bool{}
		for i := range answers {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			ti := answers[i].Trace
			tr := findTrace(t, e, ti)
			if ti.ID == callerID || seen[ti.ID] {
				t.Fatalf("%v query %d: trace %s is not its own", opt.Mode, i, ti.ID)
			}
			seen[ti.ID] = true
			if _, ok := tr.Span(StageRank); !ok {
				t.Fatalf("%v query %d: no rank span in %s", opt.Mode, i, tr.Compact())
			}
		}
	}
}

// TestBatchDegradedMatchesSerial: a query whose budget has already expired
// must degrade identically through SearchBatch and the serial pipeline
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
// run under -race this is the view/compactor synchronization test.
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

// TestCloseLeavesNoGoroutines: after Close, the background compactor, the
// query helpers and SearchBatch's goroutines are gone, and queries that race
// Close return instead of hanging.
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
