package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ferret/internal/object"
	"ferret/internal/sketch"
)

// TestIngestQueueShed pins the shed policy: with the commit path frozen
// (the test holds ingestMu), a 1-worker/1-slot admission holds exactly
// Depth+Workers = 2 producers — one parked in Ingest, one waiting for the
// run token — so exactly producers−2 are rejected with ErrOverloaded and
// counted, without waiting for the frozen commit path, and every admitted
// object commits once the path thaws.
func TestIngestQueueShed(t *testing.T) {
	const d = 8
	cfg := testConfig(t.TempDir(), d)
	cfg.Ingest = IngestParams{Depth: 1, Workers: 1, Shed: true}
	e := openEngine(t, cfg)

	e.ingestMu.Lock()
	rng := rand.New(rand.NewSource(7))
	const producers, admitted = 4, 2
	results := make(chan error, producers)
	for i := 0; i < producers; i++ {
		o := clusterObject(fmt.Sprintf("p%d", i), i, d, 1, 0.02, rng)
		go func(o object.Object) {
			_, err := e.IngestQueued(context.Background(), o, nil)
			results <- err
		}(o)
	}
	for shed := 0; shed < producers-admitted; shed++ {
		if err := <-results; !errors.Is(err, ErrOverloaded) {
			t.Fatalf("producer finished with err=%v while the commit path was frozen", err)
		}
	}
	if got := int(e.Telemetry().Value("ferret_ingest_rejected_total")); got != producers-admitted {
		t.Fatalf("ferret_ingest_rejected_total = %d, want %d", got, producers-admitted)
	}
	e.ingestMu.Unlock()

	for i := 0; i < admitted; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted producer got err=%v", err)
		}
	}
	if got := int(e.Telemetry().Value("ferret_ingest_rejected_total")); got != producers-admitted {
		t.Fatalf("ferret_ingest_rejected_total = %d after the thaw, want %d", got, producers-admitted)
	}
	if got := e.Count(); got != admitted {
		t.Fatalf("%d objects committed, want %d", got, admitted)
	}
}

// TestIngestQueueBackpressure pins the default policy: producers past the
// admission capacity block instead of shedding, and every one of them
// commits.
// A producer whose context is already cancelled is refused up front.
func TestIngestQueueBackpressure(t *testing.T) {
	const d = 8
	cfg := testConfig(t.TempDir(), d)
	cfg.Ingest = IngestParams{Depth: 1, Workers: 1}
	e := openEngine(t, cfg)

	e.ingestMu.Lock()
	rng := rand.New(rand.NewSource(8))
	const producers = 4
	results := make(chan error, producers)
	for i := 0; i < producers; i++ {
		o := clusterObject(fmt.Sprintf("b%d", i), i, d, 1, 0.02, rng)
		go func(o object.Object) {
			_, err := e.IngestQueued(context.Background(), o, nil)
			results <- err
		}(o)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := clusterObject("cancelled", 1, d, 1, 0.02, rng)
	if _, err := e.IngestQueued(ctx, o, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled producer got err=%v, want context.Canceled", err)
	}
	e.ingestMu.Unlock()

	for i := 0; i < producers; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Count(); got != producers {
		t.Fatalf("%d objects committed, want %d", got, producers)
	}
	if got := int(e.Telemetry().Value("ferret_ingest_rejected_total")); got != 0 {
		t.Fatalf("backpressure policy counted %d rejections, want 0", got)
	}
	if d := e.Telemetry().Value("ferret_ingest_queue_depth"); d != 0 {
		t.Fatalf("queue depth %g after drain, want 0", d)
	}
}

// TestIngestQueueEquivalence checks the admitted path is just Ingest:
// a corpus loaded through IngestQueued answers queries identically to one
// loaded through plain Ingest.
func TestIngestQueueEquivalence(t *testing.T) {
	const d = 8
	cfgQ := testConfig(t.TempDir(), d)
	cfgQ.Ingest = IngestParams{Depth: 8, Workers: 1}
	eq := openEngine(t, cfgQ)
	ep := openEngine(t, testConfig(t.TempDir(), d))

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		o := clusterObject(fmt.Sprintf("o%03d", i), i%5, d, 1+i%3, 0.02, rng)
		if _, err := eq.IngestQueued(context.Background(), o, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ep.Ingest(o, nil); err != nil {
			t.Fatal(err)
		}
	}
	for qi := 0; qi < 5; qi++ {
		q := clusterObject(fmt.Sprintf("q%d", qi), qi%5, d, 2, 0.02, rng)
		rq, err := runQuery(eq, q, QueryOptions{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		rp, err := runQuery(ep, q, QueryOptions{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, fmt.Sprintf("q%d", qi), rq, rp)
	}
}

// TestIngestAdmissionStartsNoGoroutines: admission runs on the producers'
// own goroutines, so an engine opened with Config.Ingest starts no more
// goroutines than one opened without it.
func TestIngestAdmissionStartsNoGoroutines(t *testing.T) {
	const d = 8
	base := settledGoroutines()
	openEngine(t, testConfig(t.TempDir(), d))
	plain := settledGoroutines()
	cfg := testConfig(t.TempDir(), d)
	cfg.Ingest = IngestParams{Depth: 8, Workers: 4}
	openEngine(t, cfg)
	admitted := settledGoroutines()
	if admitted-plain > plain-base {
		t.Fatalf("an engine with admission started %d goroutines, one without %d", admitted-plain, plain-base)
	}
}

// settledGoroutines returns the goroutine count once three reads 5 ms apart
// agree (or after a second), so goroutines still exiting from earlier tests
// do not skew a difference.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(time.Second); same < 2 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestIngestAllocs pins the allocations of one Ingest of a 10-segment image
// object (14-d, 96-bit sketches) into a live tail that does not seal: the
// store commit, the record, the published view, and the object's sketch set
// in three slices with every sketch in one backing array (sketchInto): 15
// allocations. With one allocation per sketch, as before sketchInto, it
// read 25.
func TestIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const d, nseg, runs = 14, 10, 200
	max := make([]float32, d)
	for i := range max {
		max[i] = 1
	}
	e := openEngine(t, Config{
		Dir:      t.TempDir(),
		Sketch:   sketch.Params{N: 96, K: 1, Min: make([]float32, d), Max: max, Seed: 201},
		Segments: SegmentParams{SealEntries: 4 * runs, Interval: -1},
	})
	rng := rand.New(rand.NewSource(11))
	objs := make([]object.Object, 2*runs+2)
	for i := range objs {
		weights, vecs := make([]float32, nseg), make([][]float32, nseg)
		for s := range vecs {
			weights[s] = rng.Float32() + 0.1
			vecs[s] = make([]float32, d)
			for j := range vecs[s] {
				vecs[s][j] = rng.Float32()
			}
		}
		o, err := object.New(fmt.Sprintf("img-%04d", i), weights, vecs)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = o
	}
	next := 0
	ingest := func() {
		if _, err := e.Ingest(objs[next], nil); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range runs {
		ingest() // grow the tail and the store's tables past their first sizes
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	got := testing.AllocsPerRun(runs, ingest)
	t.Logf("%.0f allocations an ingest", got)
	if want := 15.0; got > want {
		t.Errorf("Ingest allocates %.0f objects, want at most %.0f", got, want)
	}
}
