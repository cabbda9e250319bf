package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"ferret/internal/object"
)

// exactRanking is the reference answer to a query of mode over v's live
// entries: every entry's distance — objDist over a metadata-store copy
// (metastore.GetObject) for the feature-vector modes, the sketch estimate
// for BruteForceSketch — sorted exactly and cut at k.
func exactRanking(t *testing.T, e *Engine, v *view, q object.Object, mode Mode, k int) []Result {
	t.Helper()
	qset := e.buildSketchSet(q)
	var all []Result
	for i, ent := range v.entries {
		if v.isDead(i) {
			continue
		}
		r := Result{ID: ent.id, Key: ent.key, Distance: e.sketchObjectDistanceAt(v, qset, i)}
		if mode != BruteForceSketch {
			o, ok := e.meta.GetObject(ent.id)
			if !ok {
				t.Fatalf("entry %d has no feature-vector record", ent.id)
			}
			r.Distance = e.objDist(q, o)
		}
		all = append(all, r)
	}
	slices.SortFunc(all, func(a, b Result) int { return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.ID, b.ID)) })
	return all[:min(k, len(all))]
}

// sameResults reports whether two answers agree in IDs and distance bits.
func sameResults(a, b []Result) bool {
	return slices.EqualFunc(a, b, func(x, y Result) bool {
		return x.ID == y.ID && math.Float64bits(x.Distance) == math.Float64bits(y.Distance)
	})
}

// TestRecordViewsMatchStoreCopies: ranking straight from the store's
// records gives, in every mode, exactly the answer an exact sort over
// decoded copies of the same records gives.
func TestRecordViewsMatchStoreCopies(t *testing.T) {
	const d, nseg = 8, 3
	e := openEngine(t, testConfig(t.TempDir(), d))
	ingestClusters(t, e, 6, 5, d, nseg)

	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		q := clusterObject("q", trial, d, nseg, 0.01, rng)
		for _, mode := range []Mode{BruteForceOriginal, BruteForceSketch, Filtering} {
			got, err := runQuery(e, q, QueryOptions{Mode: mode, K: 5})
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if want := exactRanking(t, e, e.cur.Load(), q, mode, 5); !sameResults(got, want) {
				t.Fatalf("%v: %v, exact sort over store copies %v", mode, got, want)
			}
		}
	}
}

// TestRecordViewsSurviveReopen: a reopened engine's entries hold the store's
// own record values, not copies, and queries still work.
func TestRecordViewsSurviveReopen(t *testing.T) {
	const d = 6
	dir := t.TempDir()
	cfg := testConfig(dir, d)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestClusters(t, e, 2, 3, d, 2)
	e.Close()

	e2 := openEngine(t, cfg)
	for _, ent := range e2.cur.Load().entries {
		rec, ok := e2.Meta().ObjectRecord(ent.id)
		if !ok || len(rec) != len(ent.rec) || unsafe.SliceData(rec) != unsafe.SliceData(ent.rec) {
			t.Fatalf("entry %d holds a %d-byte record at %p, the store's is %d bytes at %p",
				ent.id, len(ent.rec), unsafe.SliceData(ent.rec), len(rec), unsafe.SliceData(rec))
		}
	}
	q := clusterObject("q", 0, d, 2, 0.01, rand.New(rand.NewSource(2)))
	results, err := runQuery(e2, q, QueryOptions{Mode: Filtering, K: 3})
	if err != nil || len(results) == 0 {
		t.Fatalf("query: %v %v", results, err)
	}
}

// TestRecordViewsDeleteAndCompact: tombstones and compaction work on
// record-backed entries, and a view held across a Delete and a Compact
// still ranks the deleted object from the record it holds.
func TestRecordViewsDeleteAndCompact(t *testing.T) {
	const d = 6
	e := openEngine(t, testConfig(t.TempDir(), d))
	ids := ingestClusters(t, e, 2, 3, d, 2)
	victim := ids[0][0]
	held := e.cur.Load()
	q := clusterObject("q", 0, d, 2, 0.01, rand.New(rand.NewSource(3)))
	want := exactRanking(t, e, held, q, BruteForceOriginal, 6)
	if err := e.Delete(victim); err != nil {
		t.Fatal(err)
	}
	e.Compact()
	if st := e.Stat(); st.Objects != 5 || st.Deleted != 0 {
		t.Fatalf("stats %+v", st)
	}
	if _, err := runQuery(e, q, QueryOptions{Mode: BruteForceOriginal, K: 5}); err != nil {
		t.Fatal(err)
	}

	sc := getScratch()
	defer putScratch(sc)
	loadScratch(sc, q, e.buildSketchSet(q), QueryOptions{Mode: BruteForceOriginal, K: 6})
	if got := e.rankAll(held, sc); !sameResults(got, want) || !slices.ContainsFunc(got, func(r Result) bool { return r.ID == victim }) {
		t.Fatalf("held view ranks %v, want %v with object %d", got, want, victim)
	}
}
