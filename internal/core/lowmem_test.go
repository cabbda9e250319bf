package core

import (
	"math/rand"
	"testing"
)

// TestLowMemoryMatchesCached: with LowMemory the engine keeps no
// feature-vector cache, yet every mode must return the same results as the
// fully cached engine.
func TestLowMemoryMatchesCached(t *testing.T) {
	const d, nseg = 8, 3
	cached := openEngine(t, testConfig(t.TempDir(), d))
	lowCfg := testConfig(t.TempDir(), d)
	lowCfg.LowMemory = true
	low := openEngine(t, lowCfg)

	ingestClusters(t, cached, 6, 5, d, nseg)
	ingestClusters(t, low, 6, 5, d, nseg)
	if n := len(low.cur.Load().objects); n != 0 {
		t.Fatalf("low-memory engine cached %d objects", n)
	}

	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		q := clusterObject("q", trial, d, nseg, 0.01, rng)
		for _, mode := range []Mode{BruteForceOriginal, BruteForceSketch, Filtering} {
			rc, err := runQuery(cached, q, QueryOptions{Mode: mode, K: 5})
			if err != nil {
				t.Fatal(err)
			}
			rl, err := runQuery(low, q, QueryOptions{Mode: mode, K: 5})
			if err != nil {
				t.Fatalf("%v low-memory: %v", mode, err)
			}
			if len(rc) != len(rl) {
				t.Fatalf("%v: %d vs %d results", mode, len(rc), len(rl))
			}
			for i := range rc {
				if rc[i].Distance != rl[i].Distance {
					t.Fatalf("%v rank %d: cached %v low %v", mode, i, rc[i], rl[i])
				}
			}
		}
	}
}

// TestLowMemorySurvivesReopen: reopening a low-memory engine must not load
// the vectors either, and queries still work.
func TestLowMemorySurvivesReopen(t *testing.T) {
	const d = 6
	dir := t.TempDir()
	cfg := testConfig(dir, d)
	cfg.LowMemory = true
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestClusters(t, e, 2, 3, d, 2)
	e.Close()

	e2 := openEngine(t, cfg)
	if len(e2.cur.Load().objects) != 0 {
		t.Fatalf("reopened low-memory engine cached %d objects", len(e2.cur.Load().objects))
	}
	q := clusterObject("q", 0, d, 2, 0.01, rand.New(rand.NewSource(2)))
	results, err := runQuery(e2, q, QueryOptions{Mode: Filtering, K: 3})
	if err != nil || len(results) == 0 {
		t.Fatalf("query: %v %v", results, err)
	}
}

// TestLowMemoryDeleteAndCompact: tombstones + compaction work without the
// object cache.
func TestLowMemoryDeleteAndCompact(t *testing.T) {
	const d = 6
	cfg := testConfig(t.TempDir(), d)
	cfg.LowMemory = true
	e := openEngine(t, cfg)
	ids := ingestClusters(t, e, 2, 3, d, 2)
	if err := e.Delete(ids[0][0]); err != nil {
		t.Fatal(err)
	}
	e.Compact()
	if st := e.Stat(); st.Objects != 5 || st.Deleted != 0 {
		t.Fatalf("stats %+v", st)
	}
	q := clusterObject("q", 1, d, 2, 0.01, rand.New(rand.NewSource(3)))
	if _, err := runQuery(e, q, QueryOptions{Mode: BruteForceOriginal, K: 5}); err != nil {
		t.Fatal(err)
	}
}
