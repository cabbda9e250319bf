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

func cachedConfig(dir string, d int) Config {
	cfg := testConfig(dir, d)
	cfg.ResultCache = ResultCacheParams{Enable: true}
	return cfg
}

func cacheCounter(e *Engine, name string) int64 {
	return int64(e.Telemetry().Value(name))
}

// TestResultCacheHitEquivalence pins the cache's core contract: a repeat
// query is served from the cache (Answer.Cache reports it) and the answer
// is bit-identical to the computed one; any ingest, delete or compaction
// invalidates, and the recomputed answer reflects the mutation.
func TestResultCacheHitEquivalence(t *testing.T) {
	const d = 8
	e := openEngine(t, cachedConfig(t.TempDir(), d))
	ids := ingestClusters(t, e, 3, 8, d, 2)
	ctx := context.Background()
	opt := QueryOptions{K: 5}

	first, err := e.SearchByID(ctx, ids[0][0], opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache != CacheMiss {
		t.Fatalf("first query Cache = %q, want %q", first.Cache, CacheMiss)
	}
	second, err := e.SearchByID(ctx, ids[0][0], opt)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != CacheHit {
		t.Fatalf("second query Cache = %q, want %q", second.Cache, CacheHit)
	}
	sameAnswers(t, "repeat by id", first.Results, second.Results)

	// Ad-hoc object queries key on content: same content, same entry.
	rng := rand.New(rand.NewSource(5))
	q := clusterObject("q", 1, d, 2, 0.01, rng)
	a1, err := e.Search(ctx, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.Search(ctx, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Cache != CacheMiss || a2.Cache != CacheHit {
		t.Fatalf("object query cache states = %q, %q", a1.Cache, a2.Cache)
	}
	sameAnswers(t, "repeat by object", a1.Results, a2.Results)

	// Ingest invalidates: the repeat recomputes and sees the new object.
	twin := q
	twin.Key = "twin-of-q"
	twinID, err := e.Ingest(twin, nil)
	if err != nil {
		t.Fatal(err)
	}
	a3, err := e.Search(ctx, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a3.Cache != CacheMiss {
		t.Fatalf("post-ingest query Cache = %q, want %q", a3.Cache, CacheMiss)
	}
	if len(a3.Results) == 0 || a3.Results[0].ID != twinID {
		t.Fatalf("post-ingest query did not surface the new identical object: %+v", a3.Results)
	}

	// Delete invalidates: the tombstoned object disappears from the repeat.
	if err := e.Delete(twinID); err != nil {
		t.Fatal(err)
	}
	a4, err := e.Search(ctx, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a4.Cache != CacheMiss {
		t.Fatalf("post-delete query Cache = %q, want %q", a4.Cache, CacheMiss)
	}
	for _, r := range a4.Results {
		if r.ID == twinID {
			t.Fatalf("post-delete query returned deleted object %d", twinID)
		}
	}
	sameAnswers(t, "post-delete vs pre-ingest", a1.Results, a4.Results)

	// Compaction bumps the epoch too (segment set changed).
	if _, err := e.Search(ctx, q, opt); err != nil {
		t.Fatal(err)
	}
	e.Compact()
	a5, err := e.Search(ctx, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a5.Cache != CacheMiss {
		t.Fatalf("post-compact query Cache = %q, want %q", a5.Cache, CacheMiss)
	}
	sameAnswers(t, "post-compact", a1.Results, a5.Results)

	if got := cacheCounter(e, "ferret_result_cache_invalidated_total"); got == 0 {
		t.Fatal("no invalidations counted across ingest/delete/compact")
	}

	// Uncacheable shapes report no cache involvement.
	restricted, err := e.SearchByID(ctx, ids[0][0], QueryOptions{K: 5, Restrict: map[object.ID]bool{ids[0][1]: true}})
	if err != nil {
		t.Fatal(err)
	}
	if restricted.Cache != "" {
		t.Fatalf("restricted query Cache = %q, want empty", restricted.Cache)
	}
}

// TestResultCacheDisabled pins the default: no cache, no cache states.
func TestResultCacheDisabled(t *testing.T) {
	const d = 6
	e := openEngine(t, testConfig(t.TempDir(), d))
	ids := ingestClusters(t, e, 2, 4, d, 2)
	ans, err := e.SearchByID(context.Background(), ids[0][0], QueryOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Cache != "" {
		t.Fatalf("Cache = %q on a cache-less engine", ans.Cache)
	}
}

// TestResultCacheCanonicalization is the option-order-insensitivity
// regression test: semantically equal spellings of the same query — zero
// values vs explicit defaults, engine-config fallback vs per-query
// override, differing budgets — must share one cache entry.
func TestResultCacheCanonicalization(t *testing.T) {
	const d = 8
	e := openEngine(t, cachedConfig(t.TempDir(), d))
	ids := ingestClusters(t, e, 3, 8, d, 2)
	ctx := context.Background()
	id := ids[1][0]

	seed, err := e.SearchByID(ctx, id, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if seed.Cache != CacheMiss {
		t.Fatalf("seed query Cache = %q", seed.Cache)
	}

	spellings := []QueryOptions{
		{K: 10}, // K default spelled out
		{K: 10, Filter: FilterParams{QuerySegments: 4, NearestPerSegment: 100, MaxHammingFrac: 0.49, WeightTighten: 0.2}},
		{K: 10, Budget: time.Minute}, // budget excluded from the key
		{K: 10, Budget: time.Hour},
		{Mode: Filtering, K: 10},
	}
	for i, opt := range spellings {
		ans, err := e.SearchByID(ctx, id, opt)
		if err != nil {
			t.Fatalf("spelling %d: %v", i, err)
		}
		if ans.Cache != CacheHit {
			t.Fatalf("spelling %d (%+v) missed the cache", i, opt)
		}
		sameAnswers(t, fmt.Sprintf("spelling %d", i), seed.Results, ans.Results)
	}

	// Genuinely different options must not collide.
	other, err := e.SearchByID(ctx, id, QueryOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cache != CacheMiss {
		t.Fatalf("K=3 query served the K=10 entry")
	}
	if len(other.Results) != 3 {
		t.Fatalf("K=3 query returned %d results", len(other.Results))
	}
}

// TestResultCacheDegradedNeverCached pins the budget semantics: a degraded
// answer is never admitted, so a repeat of the same query recomputes.
func TestResultCacheDegradedNeverCached(t *testing.T) {
	const d = 8
	e := openEngine(t, cachedConfig(t.TempDir(), d))
	ids := ingestClusters(t, e, 4, 40, d, 2)
	ctx := context.Background()
	opt := QueryOptions{K: 40, Budget: time.Nanosecond}

	first, err := e.SearchByID(ctx, ids[0][0], opt)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Degraded {
		t.Skip("1ns budget did not degrade on this machine")
	}
	second, err := e.SearchByID(ctx, ids[0][0], opt)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache == CacheHit {
		t.Fatal("degraded answer was served from the cache")
	}
	if got := cacheCounter(e, "ferret_result_cache_hits_total"); got != 0 {
		t.Fatalf("cache hits = %d after only degraded queries", got)
	}
}

// TestResultCacheBounds pins the capacity accounting: the byte bound
// evicts LRU-first and the gauges track residency.
func TestResultCacheBounds(t *testing.T) {
	const d = 8
	cfg := cachedConfig(t.TempDir(), d)
	// Room for two answers of four 7-byte keys (444 bytes each), not three.
	cfg.ResultCache.MaxBytes = 1000
	e := openEngine(t, cfg)
	ids := ingestClusters(t, e, 3, 4, d, 2)
	ctx := context.Background()
	for c := 0; c < 3; c++ {
		if _, err := e.SearchByID(ctx, ids[c][0], QueryOptions{K: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if got := cacheCounter(e, "ferret_result_cache_evictions_total"); got == 0 {
		t.Fatal("no evictions with room for 2 answers and 3 distinct queries")
	}
	if got := cacheCounter(e, "ferret_result_cache_entries"); got != 2 {
		t.Fatalf("entries gauge %d, want 2", got)
	}
	if got := cacheCounter(e, "ferret_result_cache_bytes"); got > 1000 {
		t.Fatalf("bytes gauge %d exceeds MaxBytes", got)
	}
}

// TestResultCacheMutationOracle is the cache analogue of
// TestHIndexMutationEquivalence: a long randomized interleaving of Ingest,
// Delete, seal (via a small tail) and Compact against a cached engine and
// an uncached oracle engine. At every quiesce point the cached engine —
// queried twice, so the second answer comes from the cache whenever the
// entry survived — must agree exactly with the oracle; a stale cached
// answer would diverge the moment a mutation lands. Every write must move
// the cache's clock, the published view's id. A background herd of live
// queries overlaps the mutations for -race coverage.
func TestResultCacheMutationOracle(t *testing.T) {
	const d = 8
	cfgC := cachedConfig(t.TempDir(), d)
	cfgC.Segments = SegmentParams{SealEntries: 16}
	ec := openEngine(t, cfgC)
	eo := openEngine(t, testConfig(t.TempDir(), d))

	stop := make(chan struct{})
	var herd sync.WaitGroup
	rngHerd := rand.New(rand.NewSource(99))
	herdQueries := make([]object.Object, 8)
	for i := range herdQueries {
		herdQueries[i] = clusterObject("hq", i%5, d, 2, 0.02, rngHerd)
	}
	for g := 0; g < 2; g++ {
		herd.Add(1)
		go func(g int) {
			defer herd.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := herdQueries[(g+i)%len(herdQueries)]
				if _, err := ec.Search(context.Background(), q, QueryOptions{K: 5}); err != nil {
					t.Errorf("herd query: %v", err)
					return
				}
			}
		}(g)
	}

	rng := rand.New(rand.NewSource(42))
	live := map[string]object.ID{} // key -> cached engine's ID
	seq := 0
	for step := 0; step < 200; step++ {
		before := ec.cur.Load()
		op := rng.Intn(10)
		switch {
		case op < 4 || len(live) < 10: // ingest
			key := fmt.Sprintf("m%04d", seq)
			seq++
			o := clusterObject(key, rng.Intn(5), d, 1+rng.Intn(3), 0.01, rng)
			id, err := ec.Ingest(o, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eo.Ingest(o, nil); err != nil {
				t.Fatal(err)
			}
			live[key] = id
		case op < 6: // delete a random live object
			for key, id := range live {
				if err := ec.Delete(id); err != nil {
					t.Fatal(err)
				}
				oid, ok := eo.Meta().LookupKey(key)
				if !ok {
					t.Fatalf("oracle lost key %s", key)
				}
				if err := eo.Delete(oid); err != nil {
					t.Fatal(err)
				}
				delete(live, key)
				break
			}
		case op == 6: // compact both
			ec.Compact()
			eo.Compact()
		default: // quiesced oracle check: compute, repeat (cache), compare
			q := clusterObject("q", rng.Intn(5), d, 2, 0.02, rng)
			opt := QueryOptions{K: 1 + rng.Intn(12)}
			want, err := eo.Search(context.Background(), q, opt)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 2; rep++ {
				got, err := ec.Search(context.Background(), q, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameAnswers(t, fmt.Sprintf("step %d rep %d", step, rep), got.Results, want.Results)
			}
			continue
		}
		// Compacting a compact engine changes nothing; every other write
		// must move the clock.
		compact := before.deleted == 0 && len(before.segs) <= 2 && before.tail().n == 0
		if after := ec.cur.Load().id; after <= before.id && !(op == 6 && compact) {
			t.Fatalf("step %d: a write left the view id at %d (was %d): cached answers would outlive it", step, after, before.id)
		}
	}
	close(stop)
	herd.Wait()
	if hits := cacheCounter(ec, "ferret_result_cache_hits_total"); hits == 0 {
		t.Fatal("oracle run never hit the cache (test lost its teeth)")
	}
}

// TestResultCacheSingleFlight drives concurrent identical cold queries;
// whatever mix of leader/waiter/fallback paths they take, every answer
// must be the same exact answer and subsequent lookups must hit.
func TestResultCacheSingleFlight(t *testing.T) {
	const d = 8
	e := openEngine(t, cachedConfig(t.TempDir(), d))
	ids := ingestClusters(t, e, 3, 10, d, 2)
	ctx := context.Background()
	opt := QueryOptions{K: 6}

	const n = 8
	answers := make([]Answer, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], errs[i] = e.SearchByID(ctx, ids[2][1], opt)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		sameAnswers(t, fmt.Sprintf("flight %d", i), answers[0].Results, answers[i].Results)
	}
	final, err := e.SearchByID(ctx, ids[2][1], opt)
	if err != nil {
		t.Fatal(err)
	}
	if final.Cache != CacheHit {
		t.Fatalf("post-flight query Cache = %q, want %q", final.Cache, CacheHit)
	}
	// The admitted entry is stamped with the view it was computed on, and the
	// next published view retires it.
	key, _ := e.idCacheKey(ids[2][1], &QueryOptions{K: 6})
	if ent := e.rcache.entries[key].Value.(*cacheEntry); ent.epoch != e.cur.Load().id {
		t.Fatalf("cache entry stamped %d, current view is %d", ent.epoch, e.cur.Load().id)
	}
	if err := e.Delete(ids[0][0]); err != nil {
		t.Fatal(err)
	}
	if final, err = e.SearchByID(ctx, ids[2][1], opt); err != nil || final.Cache != CacheMiss {
		t.Fatalf("query after a delete: Cache = %q (err %v), want %q", final.Cache, err, CacheMiss)
	}
}
