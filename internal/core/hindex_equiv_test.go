package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ferret/internal/object"
)

// The Hamming index is an accelerator, never an approximation: every query
// it serves must return bit-identical answers to the arena scan, across the
// full mutation protocol and on both the serial and the batched path. These
// tests drive an indexed engine and an unindexed twin through the same
// workload and compare complete Answers at every step.

// sameAnswers fails the test unless the two result lists agree exactly —
// IDs, distances, and order.
func sameAnswers(t *testing.T, label string, idx, scan []Result) {
	t.Helper()
	if len(idx) != len(scan) {
		t.Fatalf("%s: indexed returned %d results, scan %d", label, len(idx), len(scan))
	}
	for i := range idx {
		if idx[i].ID != scan[i].ID || idx[i].Distance != scan[i].Distance {
			t.Fatalf("%s: result %d diverged: indexed %+v, scan %+v", label, i, idx[i], scan[i])
		}
	}
}

// queryPair runs the same query through both engines serially and compares.
func queryPair(t *testing.T, label string, ei, es *Engine, q object.Object, opt QueryOptions) {
	t.Helper()
	ai, err := ei.Search(context.Background(), q, opt)
	if err != nil {
		t.Fatalf("%s: indexed search: %v", label, err)
	}
	as, err := es.Search(context.Background(), q, opt)
	if err != nil {
		t.Fatalf("%s: scan search: %v", label, err)
	}
	sameAnswers(t, label, ai.Results, as.Results)
	if as.FilterMode == FilterModeIndex {
		t.Fatalf("%s: unindexed engine reported FilterMode=index", label)
	}
}

// TestHIndexScanEquivalence checks indexed and unindexed engines agree on
// every query across interleaved Ingest, Delete and Compact, including
// radii past the index's exact horizon (cost-model and coverage fallbacks)
// and restricted queries (which bypass the batch path).
func TestHIndexScanEquivalence(t *testing.T) {
	const d = 10
	cfgIdx := testConfig(t.TempDir(), d)
	cfgIdx.HIndex = HIndexParams{Enable: true}
	ei := openEngine(t, cfgIdx)
	es := openEngine(t, testConfig(t.TempDir(), d))

	rng := rand.New(rand.NewSource(71))
	var objs []object.Object
	ingestBoth := func(o object.Object) {
		t.Helper()
		if _, err := ei.Ingest(o, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := es.Ingest(o, nil); err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	// Many small clusters keep the index's buckets selective: near-duplicate
	// rows share substring chunks, unrelated clusters rarely collide.
	for c := 0; c < 40; c++ {
		for m := 0; m < 6; m++ {
			ingestBoth(clusterObject(fmt.Sprintf("c%02d-m%02d", c, m), c, d, 3, 0.01, rng))
		}
	}

	check := func(label string) {
		t.Helper()
		for qi := 0; qi < 6; qi++ {
			q := clusterObject(fmt.Sprintf("q%d", qi), qi, d, 3, 0.02, rng)
			queryPair(t, fmt.Sprintf("%s/k10/q%d", label, qi), ei, es, q,
				QueryOptions{K: 10, Filter: FilterParams{NearestPerSegment: 8}})
			queryPair(t, fmt.Sprintf("%s/k3n5/q%d", label, qi), ei, es, q,
				QueryOptions{K: 3, Filter: FilterParams{NearestPerSegment: 5}})
			// The loosest threshold with a huge k stresses the coverage
			// fallback (a heap that can't fill within the index radius):
			// answers must still match.
			queryPair(t, fmt.Sprintf("%s/wide/q%d", label, qi), ei, es, q,
				QueryOptions{K: 50, Filter: FilterParams{MaxHammingFrac: 0.49, NearestPerSegment: 500}})
		}
		// Restricted queries never share a batch: the descent and the sweep
		// check the Restrict set per hit.
		restrict := map[object.ID]bool{}
		for i := 0; i < len(objs); i += 2 {
			if id, ok := ei.Meta().LookupKey(objs[i].Key); ok {
				restrict[id] = true
			}
		}
		q := clusterObject("qr", 2, d, 3, 0.02, rng)
		queryPair(t, label+"/restrict", ei, es, q, QueryOptions{K: 10, Restrict: restrict})
	}

	check("loaded")

	// Tombstone every third object on both engines.
	for i := 0; i < len(objs); i += 3 {
		if id, ok := ei.Meta().LookupKey(objs[i].Key); ok {
			if err := ei.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		if id, ok := es.Meta().LookupKey(objs[i].Key); ok {
			if err := es.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("tombstoned")

	// Compaction renumbers arena rows; the index is remapped in place.
	ei.Compact()
	es.Compact()
	check("compacted")

	// Ingest after compact: online inserts into the remapped index.
	for m := 0; m < 20; m++ {
		ingestBoth(clusterObject(fmt.Sprintf("post-m%02d", m), m%6, d, 3, 0.01, rng))
	}
	check("reingested")

	// The indexed engine must actually be using the index for the narrow
	// queries above, not silently falling back every time.
	if ei.Telemetry().Value("ferret_hindex_probes_total") == 0 {
		t.Fatal("indexed engine never probed the Hamming index")
	}
	st := ei.Stat()
	if st.HIndexTables == 0 || st.HIndexLoad <= 0 {
		t.Fatalf("index stats not surfaced: %+v", st)
	}
}

// TestHIndexBatchSerialEquivalence checks the batched table descent agrees
// with the serial probe: SearchBatch answers must match one-at-a-time
// Search answers on the same indexed engine.
func TestHIndexBatchSerialEquivalence(t *testing.T) {
	const d = 10
	cfg := testConfig(t.TempDir(), d)
	cfg.HIndex = HIndexParams{Enable: true}
	e := openEngine(t, cfg)
	ingestClusters(t, e, 30, 6, d, 3)

	rng := rand.New(rand.NewSource(72))
	queries := make([]object.Object, 8)
	for i := range queries {
		queries[i] = clusterObject(fmt.Sprintf("bq%d", i), i%30, d, 3, 0.02, rng)
	}
	opt := QueryOptions{K: 10, Filter: FilterParams{NearestPerSegment: 8}}

	answers, errs := e.SearchBatch(context.Background(), queries, opt)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch query %d: %v", i, err)
		}
		serial, err := e.Search(context.Background(), queries[i], opt)
		if err != nil {
			t.Fatalf("serial query %d: %v", i, err)
		}
		sameAnswers(t, fmt.Sprintf("q%d", i), answers[i].Results, serial.Results)
		if answers[i].FilterMode == "" {
			t.Fatalf("q%d: batch answer has no FilterMode", i)
		}
	}

	// A mode without a filter stage must not inherit the pooled scratch's
	// accounting from the filtering queries above.
	bf, err := e.Search(context.Background(), queries[0], QueryOptions{K: 5, Mode: BruteForceSketch})
	if err != nil {
		t.Fatalf("bruteforce query: %v", err)
	}
	if bf.FilterMode != "" {
		t.Fatalf("bruteforce answer leaked FilterMode %q from a pooled scratch", bf.FilterMode)
	}
}

// TestHIndexMutationEquivalence is the randomized property test: a long
// interleaving of Ingest, Delete, Compact and queries, applied identically
// to an indexed and an unindexed engine, must never produce diverging
// answers. Run with -race this also exercises the scheduler's probe path
// under the engine lock protocol.
func TestHIndexMutationEquivalence(t *testing.T) {
	const d = 8
	cfgIdx := testConfig(t.TempDir(), d)
	// Tiny table count stresses bucket overflow chains; a generous
	// candidate ceiling keeps the index in play as the corpus shrinks.
	cfgIdx.HIndex = HIndexParams{Enable: true, Tables: 4, MaxCandidateFrac: 0.9}
	ei := openEngine(t, cfgIdx)
	es := openEngine(t, testConfig(t.TempDir(), d))

	rng := rand.New(rand.NewSource(73))
	live := map[string]object.ID{} // key -> indexed engine's ID
	seq := 0
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(live) < 10: // ingest
			key := fmt.Sprintf("s%04d", seq)
			seq++
			o := clusterObject(key, rng.Intn(5), d, 1+rng.Intn(3), 0.01, rng)
			id, err := ei.Ingest(o, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := es.Ingest(o, nil); err != nil {
				t.Fatal(err)
			}
			live[key] = id
		case op < 6: // delete a random live object
			for key, id := range live {
				if err := ei.Delete(id); err != nil {
					t.Fatal(err)
				}
				sid, ok := es.Meta().LookupKey(key)
				if !ok {
					t.Fatalf("scan engine lost key %s", key)
				}
				if err := es.Delete(sid); err != nil {
					t.Fatal(err)
				}
				delete(live, key)
				break
			}
		case op == 6: // compact both
			ei.Compact()
			es.Compact()
		default: // query
			q := clusterObject("q", rng.Intn(5), d, 2, 0.02, rng)
			k := 1 + rng.Intn(12)
			queryPair(t, fmt.Sprintf("step%d", step), ei, es, q, QueryOptions{K: k})
		}
	}
	if got, want := ei.indexedRows(), es.Stat().Segments; got != want {
		t.Fatalf("index holds %d rows, scan engine has %d live segments", got, want)
	}
}
