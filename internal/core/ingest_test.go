package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ferret/internal/object"
)

// TestIngestQueueShed pins the shed policy: with the commit path frozen
// (the test holds ingestMu), a 1-worker/1-slot queue can absorb at most two
// producers — anything beyond is rejected immediately with ErrOverloaded and
// counted, and every accepted object still commits once the path thaws.
func TestIngestQueueShed(t *testing.T) {
	const d = 8
	cfg := testConfig(t.TempDir(), d)
	cfg.Ingest = IngestParams{Depth: 1, Workers: 1, Shed: true}
	e := openEngine(t, cfg)

	e.ingestMu.Lock()
	rng := rand.New(rand.NewSource(7))
	const producers = 3
	results := make(chan error, producers)
	for i := 0; i < producers; i++ {
		o := clusterObject(fmt.Sprintf("p%d", i), i, d, 1, 0.02, rng)
		go func(o object.Object) {
			_, err := e.IngestQueued(context.Background(), o, nil)
			results <- err
		}(o)
	}
	// With the drain worker parked on ingestMu, capacity is worker+slot = 2:
	// at least one producer must shed, and sheds return without waiting for
	// the frozen commit path.
	shed := 0
	for shed < producers-2 {
		if err := <-results; errors.Is(err, ErrOverloaded) {
			shed++
		} else {
			t.Fatalf("producer finished with err=%v while the commit path was frozen", err)
		}
	}
	e.ingestMu.Unlock()

	accepted := 0
	for left := producers - shed; left > 0; left-- {
		err := <-results
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			t.Fatal(err)
		}
	}
	if shed < 1 || accepted != producers-shed {
		t.Fatalf("%d shed / %d accepted of %d producers", shed, accepted, producers)
	}
	if got := int(e.Telemetry().Value("ferret_ingest_rejected_total")); got != shed {
		t.Fatalf("ferret_ingest_rejected_total = %d, want %d", got, shed)
	}
	if got := e.Count(); got != accepted {
		t.Fatalf("%d objects committed, want %d", got, accepted)
	}
}

// TestIngestQueueBackpressure pins the default policy: producers past the
// queue capacity block instead of shedding, and every one of them commits.
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
	if d := e.IngestQueueDepth(); d != 0 {
		t.Fatalf("queue depth %d after drain, want 0", d)
	}
}

// TestIngestQueueEquivalence checks the queued path is just a routed Ingest:
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
