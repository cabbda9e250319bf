package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ferret/internal/object"
)

// TestIngestWorkersOrderIndependence pins multi-worker admission's
// correctness contract: the same object set committed through concurrent
// producers with several run tokens — in a different arrival order on each
// engine — must produce engines that answer identically. Run under -race
// this also exercises admission's producer interleavings.
func TestIngestWorkersOrderIndependence(t *testing.T) {
	const (
		d       = 8
		nObjs   = 96
		workers = 4
	)
	rng := rand.New(rand.NewSource(41))
	objs := make([]object.Object, nObjs)
	for i := range objs {
		objs[i] = clusterObject(fmt.Sprintf("o%03d", i), i%6, d, 2, 0.02, rng)
	}

	build := func(order []int) *Engine {
		cfg := testConfig(t.TempDir(), d)
		cfg.Ingest = IngestParams{Depth: 16, Workers: workers}
		e := openEngine(t, cfg)
		// Concurrent producers sharded over the permuted order: arrival
		// order at admission is the permutation further scrambled by
		// scheduling, which is exactly the point.
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for p := 0; p < workers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := p; i < len(order); i += workers {
					if _, err := e.IngestQueued(context.Background(), objs[order[i]], nil); err != nil {
						errs[p] = err
						return
					}
				}
			}(p)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return e
	}

	forward := make([]int, nObjs)
	for i := range forward {
		forward[i] = i
	}
	shuffled := append([]int(nil), forward...)
	rand.New(rand.NewSource(97)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	a := build(forward)
	b := build(shuffled)

	if an, bn := a.Count(), b.Count(); an != bn || an != nObjs {
		t.Fatalf("counts diverged: %d vs %d (want %d)", an, bn, nObjs)
	}

	// Full exact rankings must agree as key→distance maps (result order at
	// equal distance may tie-break on internal IDs, which depend on arrival
	// order by design).
	fullRanking := func(e *Engine, q object.Object) map[string]float64 {
		ans, err := e.Search(context.Background(), q, QueryOptions{Mode: BruteForceOriginal, K: nObjs})
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[string]float64, len(ans.Results))
		for _, r := range ans.Results {
			m[r.Key] = r.Distance
		}
		return m
	}
	for qi := 0; qi < 8; qi++ {
		q := clusterObject(fmt.Sprintf("q%d", qi), qi%6, d, 2, 0.02, rng)
		ra, rb := fullRanking(a, q), fullRanking(b, q)
		if len(ra) != len(rb) {
			t.Fatalf("query %d: %d vs %d ranked objects", qi, len(ra), len(rb))
		}
		for k, da := range ra {
			db, ok := rb[k]
			if !ok {
				t.Fatalf("query %d: %s missing from the shuffled engine's ranking", qi, k)
			}
			if da != db {
				t.Fatalf("query %d: distance for %s diverged: %v vs %v", qi, k, da, db)
			}
		}
	}
}
