package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ferret/internal/object"
)

// The segmented engine's correctness contract: however the corpus is cut
// into storage segments — and however the background compactor reshuffles
// them mid-stream — every query must return bit-identical answers.

// TestSegmentedEquivalence drives two segmentations of one corpus — a tiny
// seal threshold with a manual merge schedule, and a threshold so large that
// everything between two Compact() calls sits in the unindexed tail — through
// one random interleaving of Ingest, Delete, compaction and queries, and
// compares full answers at every query step, with and without the Hamming
// index.
func TestSegmentedEquivalence(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		name := "scan"
		if indexed {
			name = "hindex"
		}
		t.Run(name, func(t *testing.T) {
			const d = 8
			cfgSeg := testConfig(t.TempDir(), d)
			cfgSeg.Segments = SegmentParams{SealEntries: 3, Interval: -1}
			cfgFlat := testConfig(t.TempDir(), d)
			cfgFlat.Segments.SealEntries = 1 << 20
			if indexed {
				hp := HIndexParams{Enable: true}
				cfgSeg.HIndex, cfgFlat.HIndex = hp, hp
			}
			eseg := openEngine(t, cfgSeg)
			eflat := openEngine(t, cfgFlat)

			pair := func(label string, q object.Object, opt QueryOptions) {
				t.Helper()
				as, err := eseg.Search(context.Background(), q, opt)
				if err != nil {
					t.Fatalf("%s: segmented search: %v", label, err)
				}
				af, err := eflat.Search(context.Background(), q, opt)
				if err != nil {
					t.Fatalf("%s: flat search: %v", label, err)
				}
				sameAnswers(t, label, as.Results, af.Results)
			}

			rng := rand.New(rand.NewSource(81))
			live := map[string]object.ID{}
			seq := 0
			for step := 0; step < 260; step++ {
				if step == 130 || step == 250 {
					// Full compaction collapses everything to one sealed
					// segment; keep it at fixed steps so sealed runs can accumulate
					// for the background merges in between.
					eseg.Compact()
					eflat.Compact()
					continue
				}
				switch op := rng.Intn(12); {
				case op < 5 || len(live) < 10: // ingest
					key := fmt.Sprintf("s%04d", seq)
					seq++
					o := clusterObject(key, rng.Intn(5), d, 1+rng.Intn(3), 0.01, rng)
					id, err := eseg.Ingest(o, nil)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := eflat.Ingest(o, nil); err != nil {
						t.Fatal(err)
					}
					live[key] = id
				case op < 7: // delete a random live object from both
					for key, id := range live {
						if err := eseg.Delete(id); err != nil {
							t.Fatal(err)
						}
						fid, ok := eflat.Meta().LookupKey(key)
						if !ok {
							t.Fatalf("flat engine lost key %s", key)
						}
						if err := eflat.Delete(fid); err != nil {
							t.Fatal(err)
						}
						delete(live, key)
						break
					}
				case op < 9: // one background compaction step (segmented only)
					eseg.compactOnce()
				default: // query
					q := clusterObject("q", rng.Intn(5), d, 2, 0.02, rng)
					pair(fmt.Sprintf("step%d", step), q, QueryOptions{K: 1 + rng.Intn(12)})
				}
			}

			// The batched path must agree with both the segmented serial path
			// and the flat engine.
			queries := make([]object.Object, 6)
			for i := range queries {
				queries[i] = clusterObject(fmt.Sprintf("bq%d", i), i%5, d, 2, 0.02, rng)
			}
			opt := QueryOptions{K: 10, Filter: FilterParams{NearestPerSegment: 8}}
			answers, errs := eseg.SearchBatch(context.Background(), queries, opt)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("batch query %d: %v", i, err)
				}
				serial, err := eseg.Search(context.Background(), queries[i], opt)
				if err != nil {
					t.Fatalf("serial query %d: %v", i, err)
				}
				sameAnswers(t, fmt.Sprintf("batch-vs-serial/q%d", i), answers[i].Results, serial.Results)
				flat, err := eflat.Search(context.Background(), queries[i], opt)
				if err != nil {
					t.Fatalf("flat query %d: %v", i, err)
				}
				sameAnswers(t, fmt.Sprintf("batch-vs-flat/q%d", i), answers[i].Results, flat.Results)
			}

			// The stream must actually have exercised the pipeline: seals
			// happened, merges happened, and the invariants held up.
			reg := eseg.Telemetry()
			if reg.Value("ferret_seal_total") == 0 {
				t.Fatal("segmented engine never sealed a tail segment")
			}
			if reg.Value("ferret_merge_total") == 0 {
				t.Fatal("background compactor never merged a run")
			}
			err := eseg.checkNow()
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSegmentGeometry pins the deterministic seal/merge/rewrite schedule:
// seals at the configured capacity, merge of an adjacent sealed run, solo
// rewrite of a tombstone-heavy segment, and a clean rebuild on reopen.
func TestSegmentGeometry(t *testing.T) {
	const d = 10
	cfg := testConfig(t.TempDir(), d)
	cfg.Segments = SegmentParams{SealEntries: 4, Interval: -1}
	cfg.HIndex = HIndexParams{Enable: true}
	e := openEngine(t, cfg)

	objs := ingestVaried(t, e, 18, d)
	byID := map[object.ID]object.Object{}
	for _, o := range objs {
		byID[o.ID] = o
	}
	// 18 entries at SealEntries=4: four sealed segments plus a 2-entry tail.
	if got := e.Stat().StorageSegments; got != 5 {
		t.Fatalf("%d storage segments after 18 ingests, want 5", got)
	}
	checkArenaAgainstObjects(t, e, byID)

	// One background step merges the run of mergeSegments equal sealed
	// segments (the tail is never touched); a second step finds nothing
	// eligible.
	if !e.compactOnce() {
		t.Fatal("compactOnce found no eligible merge run")
	}
	if got := e.Stat().StorageSegments; got != 2 {
		t.Fatalf("%d storage segments after merge, want 2", got)
	}
	if e.compactOnce() {
		t.Fatal("compactOnce merged with only one sealed segment")
	}
	checkArenaAgainstObjects(t, e, byID)

	// Ten more ingests: the tail seals three times. The 16-entry merged
	// segment and the 4-entry seals are different size tiers.
	more := ingestVariedKeys(t, e, "h", 10, d)
	if got := e.Stat().StorageSegments; got != 5 {
		t.Fatalf("%d storage segments after re-ingest, want 5", got)
	}
	if e.compactOnce() {
		t.Fatal("compactOnce merged a 16-entry segment with 4-entry ones")
	}
	// A fourth 4-entry seal completes a run of equals behind the 16-entry
	// segment: equals merge with equals, one tier per step.
	more = append(more, ingestVariedKeys(t, e, "i", 4, d)...)
	for _, o := range more {
		byID[o.ID] = o
	}
	if !e.compactOnce() {
		t.Fatalf("compactOnce found no run to merge with %d storage segments", e.Stat().StorageSegments)
	}
	if got := e.Stat().StorageSegments; got != 3 {
		t.Fatalf("%d storage segments after a tier merge, want 3", got)
	}
	if e.compactOnce() {
		t.Fatal("compactOnce merged two sealed segments")
	}

	// Tombstone a quarter of the first 16-entry sealed segment: the dead
	// fraction reaches tombstoneFrac and the next step solo-rewrites it.
	for _, o := range objs[:4] {
		if err := e.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
		delete(byID, o.ID)
	}
	if !e.compactOnce() {
		t.Fatal("compactOnce skipped the tombstone-heavy segment")
	}
	if got := e.Stat().Deleted; got != 0 {
		t.Fatalf("%d tombstones after solo rewrite, want 0", got)
	}
	if got := len(e.cur.Load().entries); got != 28 {
		t.Fatalf("%d entries after rewrite, want 28", got)
	}
	checkArenaAgainstObjects(t, e, byID)

	rng := rand.New(rand.NewSource(17))
	q := clusterObject("q", 1, d, 2, 0.02, rng)
	res, err := runQuery(e, q, QueryOptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}

	// A reopened engine loads the stored corpus into one sealed segment and
	// answers identically.
	e.Close()
	e2 := openEngine(t, cfg)
	checkArenaAgainstObjects(t, e2, byID)
	if v := e2.cur.Load(); len(v.sealed()) != 1 || v.tail().n != 0 || v.segs[0].hindex.Rows() != v.totalRows() {
		t.Fatalf("reopened with %d sealed segments and a %d-entry tail, want one fully indexed segment and an empty tail", len(v.sealed()), v.tail().n)
	}
	res2, err := runQuery(e2, q, QueryOptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, "reopen", res2, res)
}

// TestQueriesDuringCompact is the lock-protocol contract of the full
// compaction: Compact freezes ingest but builds the merged segment outside
// the writer mutex, so queries and deletes keep completing while it runs.
// The compaction is held mid-build via compactStepHook; run under -race
// this also checks the snapshot/swap protocol against concurrent readers.
func TestQueriesDuringCompact(t *testing.T) {
	const d = 8
	e := openEngine(t, testConfig(t.TempDir(), d))
	objs := ingestVaried(t, e, 150, d)
	for i := 0; i < len(objs); i += 4 {
		if err := e.Delete(objs[i].ID); err != nil {
			t.Fatal(err)
		}
	}

	held := make(chan struct{})
	release := make(chan struct{})
	var holdOnce sync.Once
	compactStepHook = func() {
		holdOnce.Do(func() { close(held) })
		<-release
	}
	defer func() { compactStepHook = nil }()

	compactDone := make(chan struct{})
	go func() {
		e.Compact()
		close(compactDone)
	}()
	<-held

	// Queries must make progress while the merge is building.
	rng := rand.New(rand.NewSource(91))
	for i := 0; i < 8; i++ {
		q := clusterObject(fmt.Sprintf("q%d", i), i%7, d, 2, 0.02, rng)
		if _, err := runQuery(e, q, QueryOptions{K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-compactDone:
		t.Fatal("compaction finished while the step hook held it")
	default:
	}

	// Ingest parks behind the compaction's write freeze and completes once
	// the compaction is released.
	ingDone := make(chan error, 1)
	go func() {
		o := clusterObject("w", 1, d, 2, 0.02, rand.New(rand.NewSource(92)))
		_, err := e.Ingest(o, nil)
		ingDone <- err
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-ingDone:
		t.Fatalf("ingest completed during the compaction freeze (err=%v)", err)
	default:
	}

	close(release)
	<-compactDone
	if err := <-ingDone; err != nil {
		t.Fatal(err)
	}
	if got := e.Stat().Deleted; got != 0 {
		t.Fatalf("%d tombstones survived the full compaction", got)
	}
	err := e.checkNow()
	if err != nil {
		t.Fatal(err)
	}
}
