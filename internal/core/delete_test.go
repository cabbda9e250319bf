package core

import (
	"context"
	"math/rand"
	"testing"

	"ferret/internal/object"
)

func TestDeleteRemovesFromResults(t *testing.T) {
	const d = 6
	e := openEngine(t, testConfig(t.TempDir(), d))
	ids := ingestClusters(t, e, 3, 4, d, 2)
	victim := ids[1][0]

	if err := e.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if e.Count() != 11 {
		t.Fatalf("Count = %d", e.Count())
	}
	st := e.Stat()
	if st.Objects != 11 || st.Deleted != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The deleted object never appears again, in any mode.
	q := clusterObject("q", 1, d, 2, 0.01, rand.New(rand.NewSource(3)))
	for _, mode := range []Mode{BruteForceOriginal, BruteForceSketch, Filtering} {
		results, err := runQuery(e, q, QueryOptions{Mode: mode, K: 20})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.ID == victim {
				t.Fatalf("%v: deleted object returned", mode)
			}
		}
	}
	// Metadata is gone.
	if _, ok := e.Meta().GetObject(victim); ok {
		t.Fatal("metadata survived delete")
	}
	// Its key can be re-ingested.
	key := "c01-m00"
	o := clusterObject(key, 1, d, 2, 0.01, rand.New(rand.NewSource(4)))
	if _, err := e.Ingest(o, nil); err != nil {
		t.Fatalf("re-ingest: %v", err)
	}
}

func TestDeleteWithIndex(t *testing.T) {
	const d = 6
	cfg := testConfig(t.TempDir(), d)
	cfg.HIndex = HIndexParams{Enable: true}
	cfg.Filter.MaxHammingFrac = 0.03 // inside the radius round 0 covers (8 tables): descents cover the query outright
	e := openEngine(t, cfg)
	ids := ingestClusters(t, e, 30, 4, d, 2)
	e.Compact() // seal: the victim's rows are in an index from here on
	victim := ids[0][0]
	if err := e.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if st := e.Stat(); st.IndexedSegments != 120*2 {
		t.Fatalf("%d rows indexed after the delete, want all 240: the index is never edited", st.IndexedSegments)
	}
	q := clusterObject("q", 0, d, 2, 0.01, rand.New(rand.NewSource(5)))
	ans, err := e.Search(context.Background(), q, QueryOptions{Mode: Filtering, K: 20})
	if err != nil {
		t.Fatal(err)
	}
	if ans.FilterMode != FilterModeIndex {
		t.Fatalf("filter mode %q, want %q: the query never reached the index", ans.FilterMode, FilterModeIndex)
	}
	for _, r := range ans.Results {
		if r.ID == victim {
			t.Fatal("deleted object returned through index probe")
		}
	}
}

func TestDeleteCompactedOnReopen(t *testing.T) {
	const d = 6
	dir := t.TempDir()
	cfg := testConfig(dir, d)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := ingestClusters(t, e, 2, 3, d, 2)
	if err := e.Delete(ids[0][1]); err != nil {
		t.Fatal(err)
	}
	if st := e.Stat(); st.Deleted != 1 {
		t.Fatalf("pre-reopen stats %+v", st)
	}
	e.Close()

	e2 := openEngine(t, cfg)
	st := e2.Stat()
	if st.Objects != 5 || st.Deleted != 0 {
		t.Fatalf("post-reopen stats %+v", st)
	}
}

func TestCompact(t *testing.T) {
	const d = 6
	cfg := testConfig(t.TempDir(), d)
	cfg.HIndex = HIndexParams{Enable: true}
	e := openEngine(t, cfg)
	ids := ingestClusters(t, e, 3, 4, d, 2)
	for _, id := range ids[0] {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stat(); st.Deleted != 4 {
		t.Fatalf("pre-compact %+v", st)
	}
	e.Compact()
	st := e.Stat()
	if st.Deleted != 0 || st.Objects != 8 {
		t.Fatalf("post-compact %+v", st)
	}
	if st.IndexedSegments != 8*2 {
		t.Fatalf("index not rebuilt over the live rows: %+v", st)
	}
	// Queries still work and exclude the deleted cluster.
	q := clusterObject("q", 0, d, 2, 0.01, rand.New(rand.NewSource(8)))
	results, err := runQuery(e, q, QueryOptions{Mode: BruteForceOriginal, K: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("%d results after compact", len(results))
	}
	// Compacting a compact engine is a no-op: no rebuild, no new view (so
	// cached answers survive it).
	id, compacts := e.cur.Load().id, e.Telemetry().Value("ferret_compact_total")
	e.Compact()
	if st := e.Stat(); st.Objects != 8 {
		t.Fatalf("second compact changed state: %+v", st)
	}
	if e.cur.Load().id != id || e.Telemetry().Value("ferret_compact_total") != compacts {
		t.Fatalf("second compact published view %d (was %d) or counted a compaction", e.cur.Load().id, id)
	}
}

func TestDeleteUnknownID(t *testing.T) {
	const d = 4
	e := openEngine(t, testConfig(t.TempDir(), d))
	// Deleting a never-ingested ID is a no-op commit (metastore tolerates
	// missing rows); Count must be unaffected.
	if err := e.Delete(object.ID(999)); err != nil {
		t.Fatal(err)
	}
	if e.Count() != 0 {
		t.Fatalf("Count = %d", e.Count())
	}
}

// TestDeleteFindsEntryByID pins Delete's ID lookup across the cases a
// positional shortcut would get wrong: an ID that was never ingested, an ID
// deleted twice, and IDs whose entry positions moved when a compaction
// dropped earlier tombstones — in a segmented engine, so the located entry
// must also map to the right storage segment.
func TestDeleteFindsEntryByID(t *testing.T) {
	const d = 6
	cfg := testConfig(t.TempDir(), d)
	cfg.HIndex = HIndexParams{Enable: true}
	cfg.Segments = SegmentParams{SealEntries: 5, Interval: -1}
	e := openEngine(t, cfg)
	ids := ingestClusters(t, e, 4, 4, d, 2)
	check := func(label string, objects, deleted int) {
		t.Helper()
		err := e.checkNow()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if st := e.Stat(); st.Objects != objects || st.Deleted != deleted {
			t.Fatalf("%s: stats %+v, want %d objects / %d deleted", label, st, objects, deleted)
		}
	}
	del := func(id object.ID) {
		t.Helper()
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	del(object.ID(0)) // below every ID
	del(object.ID(999))
	check("delete-missing", 16, 0)

	del(ids[0][1])
	del(ids[2][3])
	check("delete", 14, 2)
	del(ids[0][1])
	check("delete-twice", 14, 2)
	if v := e.Telemetry().Value("ferret_delete_total"); v != 2 {
		t.Fatalf("ferret_delete_total = %g, want 2", v)
	}

	// Compaction drops the two tombstones, so every later entry moves down:
	// position and ID no longer line up.
	e.Compact()
	check("compact", 14, 0)
	del(ids[0][1]) // gone for good: still a no-op
	del(ids[3][3]) // the last entry
	del(ids[0][2]) // an early one
	check("delete-after-compact", 12, 2)
	for g, ent := range e.cur.Load().entries {
		if want := ent.id == ids[3][3] || ent.id == ids[0][2]; e.cur.Load().isDead(g) != want {
			t.Fatalf("entry %d (id %d): dead=%v, want %v", g, ent.id, !want, want)
		}
	}
	q := clusterObject("q", 3, d, 2, 0.01, rand.New(rand.NewSource(6)))
	results, err := runQuery(e, q, QueryOptions{K: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.ID == ids[3][3] || r.ID == ids[0][2] {
			t.Fatalf("deleted object %d returned", r.ID)
		}
	}
}

func TestStatSegments(t *testing.T) {
	const d = 4
	e := openEngine(t, testConfig(t.TempDir(), d))
	ingestClusters(t, e, 2, 2, d, 3)
	st := e.Stat()
	if st.Segments != 2*2*3 {
		t.Fatalf("segments %d", st.Segments)
	}
	if st.SketchBits != 256 || st.SketchBytes != st.Segments*4*8 {
		t.Fatalf("stats %+v", st)
	}
}
