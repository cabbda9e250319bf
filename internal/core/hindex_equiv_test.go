package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ferret/internal/object"
)

// The Hamming index is an accelerator, never an approximation: every query
// it serves must return bit-identical answers to the arena scan, across
// ingest, delete, seal and merge and on both the serial and the batched path.
// These
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
// and restricted queries.
func TestHIndexScanEquivalence(t *testing.T) {
	const d = 10
	cfgIdx := testConfig(t.TempDir(), d)
	cfgIdx.HIndex = HIndexParams{Enable: true}
	// 240 objects seal into seven indexed segments and a 16-entry tail.
	cfgIdx.Segments = SegmentParams{SealEntries: 32, Interval: -1}
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
		// Restricted queries: the descent and the sweep check the Restrict set
		// per hit.
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

	// Compaction renumbers arena rows and builds a fresh index over them.
	ei.Compact()
	es.Compact()
	check("compacted")

	// Ingest after compact: an unindexed tail beside the one sealed index.
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

// TestDefaultEngineStaysIndexServed runs the engine every other test in this
// package configures away: zero SegmentParams — 1024-entry seals and the
// background compactor, woken by each seal — fed online with the index on and
// never Compact()ed. Each cluster's members arrive 870 objects apart,
// so no storage segment holds enough of a query's neighbours to fill its heap
// alone: the sealed segments' indexes have to answer as one. Answers must
// match the unindexed twin, the compactor must have folded the seals into a
// few tiers on its own, and the index must serve nearly every probed pair.
func TestDefaultEngineStaysIndexServed(t *testing.T) {
	const d, members = 10, 6
	const clusters = (5*defaultSealEntries + 100) / members
	cfgIdx := testConfig(t.TempDir(), d)
	cfgIdx.Segments = SegmentParams{}
	cfgIdx.HIndex = HIndexParams{Enable: true}
	ei := openEngine(t, cfgIdx)
	es := openEngine(t, testConfig(t.TempDir(), d))

	rng := rand.New(rand.NewSource(74))
	for m := 0; m < members; m++ {
		for c := 0; c < clusters; c++ {
			o := clusterObject(fmt.Sprintf("c%04d-m%d", c, m), c, d, 3, 0.01, rng)
			if _, err := ei.Ingest(o, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := es.Ingest(o, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Five seals; wait until the compactor is idle with nothing left to merge.
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		ei.compactMu.Lock()
		_, n := ei.pickMerge(ei.cur.Load())
		ei.compactMu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compactor still has work after 20s (%d storage segments)", ei.Stat().StorageSegments)
		}
	}
	if err := ei.checkNow(); err != nil {
		t.Fatal(err)
	}
	if got := ei.Stat().StorageSegments; got != 3 {
		t.Fatalf("%d storage segments after 5 seals, want the four-seal merge, the fifth seal and the tail", got)
	}

	for qi := 0; qi < 40; qi++ {
		q := clusterObject(fmt.Sprintf("q%d", qi), rng.Intn(clusters), d, 3, 0.01, rng)
		queryPair(t, fmt.Sprintf("q%d", qi), ei, es, q,
			QueryOptions{K: 5, Filter: FilterParams{NearestPerSegment: members - 1}})
	}
	reg := ei.Telemetry()
	probes, fallbacks := reg.Value("ferret_hindex_probes_total"), reg.Value("ferret_hindex_fallback_total")
	if probes == 0 || fallbacks*4 > probes {
		t.Fatalf("%v index probes, %v fallbacks to the sweep: the default engine is not index-served", probes, fallbacks)
	}
}

// TestHIndexBatchSerialEquivalence: SearchBatch answers must match
// one-at-a-time Search answers on the same indexed engine.
func TestHIndexBatchSerialEquivalence(t *testing.T) {
	const d = 10
	cfg := testConfig(t.TempDir(), d)
	cfg.HIndex = HIndexParams{Enable: true}
	e := openEngine(t, cfg)
	ingestClusters(t, e, 30, 6, d, 3)
	e.Compact() // seal: only sealed segments are indexed

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
// interleaving of Ingest, Delete, seals, merge steps, Compact and queries,
// applied to an indexed engine with a tiny seal threshold and to an unindexed
// twin that never seals, must never produce diverging answers.
func TestHIndexMutationEquivalence(t *testing.T) {
	const d = 8
	cfgIdx := testConfig(t.TempDir(), d)
	cfgIdx.HIndex = HIndexParams{Enable: true}
	cfgIdx.Segments = SegmentParams{SealEntries: 4, Interval: -1}
	ei := openEngine(t, cfgIdx)
	es := openEngine(t, testConfig(t.TempDir(), d))

	rng := rand.New(rand.NewSource(73))
	live := map[string]object.ID{} // key -> indexed engine's ID
	seq := 0
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(12); {
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
		case op == 6: // one merge step (indexed engine only: the twin never seals)
			ei.compactOnce()
		case op == 7 && step%5 == 0: // compact both
			ei.Compact()
			es.Compact()
		default: // query
			q := clusterObject("q", rng.Intn(5), d, 2, 0.02, rng)
			k := 1 + rng.Intn(12)
			// A small per-segment k lets a descent fill its heap inside the
			// index radius even from a handful of four-entry segments.
			queryPair(t, fmt.Sprintf("step%d", step), ei, es, q,
				QueryOptions{K: k, Filter: FilterParams{NearestPerSegment: []int{0, 6}[rng.Intn(2)]}})
		}
		if err := ei.checkNow(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	reg := ei.Telemetry()
	for _, name := range []string{"ferret_seal_total", "ferret_merge_total", "ferret_compact_total", "ferret_hindex_probes_total"} {
		if reg.Value(name) == 0 {
			t.Fatalf("%s is 0: the interleaving no longer reaches that arm", name)
		}
	}
}
