package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ferret/internal/metastore"
	"ferret/internal/object"
)

// ingestVaried loads n objects with varying segment counts and returns them
// (IDs filled in) so tests can cross-check arena rows against the builder.
func ingestVaried(t testing.TB, e *Engine, n, d int) []object.Object {
	return ingestVariedKeys(t, e, "v", n, d)
}

func ingestVariedKeys(t testing.TB, e *Engine, prefix string, n, d int) []object.Object {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	objs := make([]object.Object, n)
	for i := 0; i < n; i++ {
		o := clusterObject(fmt.Sprintf("%s%03d", prefix, i), i%7, d, 1+i%5, 0.02, rng)
		id, err := e.Ingest(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		o.ID = id
		objs[i] = o
	}
	return objs
}

// checkNow checks the published view's invariants (quiescent engines only:
// the tombstone gauge is compared with the view).
func (e *Engine) checkNow() error { return e.checkSegInvariants(e.cur.Load()) }

// compactOnce is what the background compactor does with one eligible unit
// on an Interval tick: the step, then the checkpoint of what it reclaimed.
// Reports whether a merge ran.
func (e *Engine) compactOnce() bool {
	ran, reclaimed := e.compactStep()
	e.checkpointAfterMerge(reclaimed)
	return ran
}

// totalRows sums arena rows (tombstoned included) across the view's segments;
// indexedRows sums its Hamming indexes' populations.
func (v *view) totalRows() (rows int) {
	for _, s := range v.segs {
		rows += s.arena.rows()
	}
	return rows
}

func (v *view) indexedRows() (rows int) {
	for _, s := range v.sealed() {
		if s.hindex != nil {
			rows += s.hindex.Rows()
		}
	}
	return rows
}

// checkArenaAgainstObjects verifies that every live entry's arena rows hold
// exactly the sketches and weights the builder produces for its object.
func checkArenaAgainstObjects(t *testing.T, e *Engine, byID map[object.ID]object.Object) {
	t.Helper()
	if err := e.checkNow(); err != nil {
		t.Fatal(err)
	}
	v := e.cur.Load()
	for idx := range v.entries {
		ent := &v.entries[idx]
		if v.isDead(idx) {
			continue
		}
		o, ok := byID[ent.id]
		if !ok {
			t.Fatalf("entry %d: unexpected id %d", idx, ent.id)
		}
		sg, li := v.segOf(idx)
		lo, hi := sg.arena.rowsOf(li)
		if hi-lo != len(o.Segments) {
			t.Fatalf("entry %d: %d arena rows for %d segments", idx, hi-lo, len(o.Segments))
		}
		for s, seg := range o.Segments {
			if sg.arena.weight[lo+s] != seg.Weight {
				t.Fatalf("entry %d row %d: weight %g, want %g", idx, lo+s, sg.arena.weight[lo+s], seg.Weight)
			}
			want := e.builder.Build(seg.Vec)
			got := sg.arena.at(lo + s)
			for w := range want {
				if got[w] != want[w] {
					t.Fatalf("entry %d row %d: sketch word %d mismatch", idx, lo+s, w)
				}
			}
		}
	}
}

// TestArenaIntegrityAcrossMutations drives the arena through the full
// mutation protocol — Ingest, seal, Delete (tombstones), Compact — and checks
// the word arena, the offset table and the Hamming indexes stay consistent
// with the entries at every step.
func TestArenaIntegrityAcrossMutations(t *testing.T) {
	const d = 10
	cfg := testConfig(t.TempDir(), d)
	cfg.HIndex = HIndexParams{Enable: true}
	cfg.Segments = SegmentParams{SealEntries: 8, Interval: -1}
	e := openEngine(t, cfg)

	objs := ingestVaried(t, e, 40, d)
	byID := make(map[object.ID]object.Object, len(objs))
	totalSegs := 0
	for _, o := range objs {
		byID[o.ID] = o
		totalSegs += len(o.Segments)
	}
	checkArenaAgainstObjects(t, e, byID)
	if got := e.cur.Load().totalRows(); got != totalSegs {
		t.Fatalf("arena rows %d, want %d", got, totalSegs)
	}
	// 40 entries at SealEntries 8: five sealed segments, every row indexed,
	// and an empty tail.
	if got := e.cur.Load().indexedRows(); got != totalSegs {
		t.Fatalf("index rows %d, want %d", got, totalSegs)
	}

	// Tombstone every third object: arenas and indexes keep the rows (the
	// tombstone bitmaps hide them) and their geometry must be untouched.
	liveSegs := totalSegs
	for i := 0; i < len(objs); i += 3 {
		if err := e.Delete(objs[i].ID); err != nil {
			t.Fatal(err)
		}
		liveSegs -= len(objs[i].Segments)
		delete(byID, objs[i].ID)
	}
	checkArenaAgainstObjects(t, e, byID)
	if v := e.cur.Load(); v.totalRows() != totalSegs || v.indexedRows() != totalSegs {
		t.Fatalf("tombstoning changed the geometry: %d arena rows, %d indexed, want %d", v.totalRows(), v.indexedRows(), totalSegs)
	}
	if got := int(e.met.segments.Value()); got != liveSegs {
		t.Fatalf("segments gauge %d, want %d", got, liveSegs)
	}

	// Deleted objects must not appear in query results while tombstoned.
	rng := rand.New(rand.NewSource(9))
	q := clusterObject("q", 0, d, 3, 0.02, rng)
	res, err := runQuery(e, q, QueryOptions{K: len(objs)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if _, ok := byID[r.ID]; !ok {
			t.Fatalf("query returned deleted object %d", r.ID)
		}
	}

	// Compact drops the tombstoned rows; everything must stay consistent
	// and the one sealed segment's index must hold exactly the live rows.
	e.Compact()
	checkArenaAgainstObjects(t, e, byID)
	v := e.cur.Load()
	if v.totalRows() != liveSegs || v.indexedRows() != liveSegs {
		t.Fatalf("%d arena rows, %d indexed after compact, want %d", v.totalRows(), v.indexedRows(), liveSegs)
	}
	if len(v.entries) != len(byID) || len(v.sealed()) != 1 || v.tail().n != 0 {
		t.Fatalf("%d entries in %d sealed segments and a %d-entry tail after compact, want %d in 1 and 0",
			len(v.entries), len(v.sealed()), v.tail().n, len(byID))
	}

	// Ingest after compact appends cleanly.
	more := ingestVariedKeys(t, e, "m", 5, d)
	for _, o := range more {
		byID[o.ID] = o
	}
	checkArenaAgainstObjects(t, e, byID)

	// A reopened engine rebuilds the same arena from the metadata store.
	res, err = runQuery(e, q, QueryOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e2 := openEngine(t, cfg)
	checkArenaAgainstObjects(t, e2, byID)
	res2, err := runQuery(e2, q, QueryOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(res2) {
		t.Fatalf("reopened engine returned %d results, want %d", len(res2), len(res))
	}
	for i := range res {
		if res[i].ID != res2[i].ID || res[i].Distance != res2[i].Distance {
			t.Fatalf("result %d diverged across reopen: %+v vs %+v", i, res[i], res2[i])
		}
	}
}

// TestQueryConcurrentWithIngestCompact exercises the publication protocol
// under the race detector: queries run concurrently with ingest, delete and
// compaction, and must only ever observe consistent arena state.
func TestQueryConcurrentWithIngestCompact(t *testing.T) {
	const d = 8
	e := openEngine(t, testConfig(t.TempDir(), d))
	objs := ingestVaried(t, e, 30, d)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := clusterObject(fmt.Sprintf("q%d-%d", g, i), i%7, d, 2, 0.02, rng)
				if _, err := runQuery(e, q, QueryOptions{K: 5}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	rng := rand.New(rand.NewSource(200))
	for i := 0; i < 30; i++ {
		o := clusterObject(fmt.Sprintf("w%03d", i), i%7, d, 1+i%4, 0.02, rng)
		if _, err := e.Ingest(o, nil); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 && i/5 < len(objs) {
			if err := e.Delete(objs[i/5].ID); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 9 {
			e.Compact()
		}
	}
	close(stop)
	wg.Wait()

	err := e.checkNow()
	if err != nil {
		t.Fatal(err)
	}
}

// queryAll runs the same queries against an engine and returns the results
// plus the engine's total object-distance evaluation and prune counts.
func queryAll(t *testing.T, e *Engine, queries []object.Object, k int) ([][]Result, int, int) {
	t.Helper()
	all := make([][]Result, len(queries))
	for i, q := range queries {
		res, err := runQuery(e, q, QueryOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		all[i] = res
	}
	reg := e.Telemetry()
	return all, int(reg.Value("ferret_rank_distance_evals_total")),
		int(reg.Value("ferret_rank_emd_pruned_total"))
}

// TestPruningPreservesResults is the tentpole's correctness contract: with
// pruning on, Filtering-mode results must be identical (IDs and distances)
// to the unpruned pipeline — only the evaluation counts may differ.
func TestPruningPreservesResults(t *testing.T) {
	for _, sketchOnly := range []bool{false, true} {
		name := "emd"
		if sketchOnly {
			name = "sketch-only"
		}
		t.Run(name, func(t *testing.T) {
			const d = 10
			mk := func(disable bool) *Engine {
				cfg := testConfig(t.TempDir(), d)
				cfg.SketchOnly = sketchOnly
				cfg.Prune.Disable = disable
				e := openEngine(t, cfg)
				ingestVaried(t, e, 120, d)
				return e
			}
			pruned, unpruned := mk(false), mk(true)

			rng := rand.New(rand.NewSource(33))
			queries := make([]object.Object, 15)
			for i := range queries {
				queries[i] = clusterObject(fmt.Sprintf("q%02d", i), i%7, d, 1+i%4, 0.02, rng)
			}
			resP, evalsP, prunedCount := queryAll(t, pruned, queries, 8)
			resU, evalsU, _ := queryAll(t, unpruned, queries, 8)

			for qi := range queries {
				if len(resP[qi]) != len(resU[qi]) {
					t.Fatalf("query %d: %d pruned results vs %d unpruned", qi, len(resP[qi]), len(resU[qi]))
				}
				for i := range resP[qi] {
					if resP[qi][i].ID != resU[qi][i].ID || resP[qi][i].Distance != resU[qi][i].Distance {
						t.Fatalf("query %d result %d diverged: pruned %+v, unpruned %+v",
							qi, i, resP[qi][i], resU[qi][i])
					}
				}
			}
			if prunedCount <= 0 {
				t.Fatalf("prune counter %d: lower-bound prune never fired", prunedCount)
			}
			if evalsP >= evalsU {
				t.Fatalf("pruned pipeline did %d evals, unpruned %d: pruning saved nothing", evalsP, evalsU)
			}
			t.Logf("%s: evals %d → %d (pruned %d)", name, evalsU, evalsP, prunedCount)
		})
	}
}

// TestDedupSingleEvalPerCandidate guards the candidate-set dedup: however
// many query segments (or index probe buckets) reach an object, the ranking
// unit must evaluate it exactly once.
func TestDedupSingleEvalPerCandidate(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		name := "scan"
		if indexed {
			name = "hindex"
		}
		t.Run(name, func(t *testing.T) {
			const d = 10
			cfg := testConfig(t.TempDir(), d)
			cfg.Prune.Disable = true // count raw per-candidate evaluations
			if indexed {
				cfg.HIndex = HIndexParams{Enable: true}
			}
			e := openEngine(t, cfg)
			ingestClusters(t, e, 5, 10, d, 3)

			// Four identical query segments: every query segment nominates
			// the same nearest dataset segments, so without dedup the same
			// candidates would be ranked four times.
			rng := rand.New(rand.NewSource(44))
			base := clusterObject("q", 2, d, 1, 0.02, rng)
			vec := base.Segments[0].Vec
			q, err := object.New("q4", []float32{1, 1, 1, 1}, [][]float32{vec, vec, vec, vec})
			if err != nil {
				t.Fatal(err)
			}

			reg := e.Telemetry()
			before := int(reg.Value("ferret_rank_distance_evals_total"))
			beforeCand := int(reg.Value("ferret_filter_candidates_total"))
			if _, err := runQuery(e, q, QueryOptions{K: 5, Filter: FilterParams{QuerySegments: 4, NearestPerSegment: 20}}); err != nil {
				t.Fatal(err)
			}
			evals := int(reg.Value("ferret_rank_distance_evals_total")) - before
			cands := int(reg.Value("ferret_filter_candidates_total")) - beforeCand
			if cands == 0 {
				t.Fatal("filter produced no candidates")
			}
			if evals != cands {
				t.Fatalf("%d evaluations for %d distinct candidates: dedup broken", evals, cands)
			}
			if cands > e.Count() {
				t.Fatalf("%d candidates exceed %d live objects: candidate set not deduplicated", cands, e.Count())
			}
		})
	}
}

// loadScratch loads one query into a scratch the way Engine.begin does,
// minus the trace and the sketch build, so tests can drive the filtering
// unit (filter) directly.
func loadScratch(sc *queryScratch, q object.Object, qset *metastore.SketchSet, opt QueryOptions) {
	sc.ctx, sc.q, sc.hasQ, sc.qset, sc.opt = context.Background(), q, true, qset, opt
	sc.clk.reset(sc.ctx, 0)
}

// TestFilterPathAllocs pins the zero-allocation property of the filtering
// unit: with pooled scratch, a steady-state filter pass over
// the arena performs no heap allocations.
func TestFilterPathAllocs(t *testing.T) {
	const d = 10
	e := openEngine(t, testConfig(t.TempDir(), d))
	ingestClusters(t, e, 5, 40, d, 3)

	rng := rand.New(rand.NewSource(55))
	q := clusterObject("q", 3, d, 3, 0.02, rng)
	sc := getScratch()
	defer putScratch(sc)
	loadScratch(sc, q, e.buildSketchSet(q), QueryOptions{K: 10})

	allocs := testing.AllocsPerRun(50, func() { e.filter(e.cur.Load(), sc) })
	if allocs != 0 {
		t.Fatalf("filter scan allocates %.1f objects per query, want 0", allocs)
	}
	if len(sc.cands) == 0 {
		t.Fatal("filter produced no candidates")
	}

	// With a trace armed the property must still hold: span recording writes
	// into the Active's fixed buffer, and overflow past MaxSpans is counted,
	// never grown.
	if !e.tracer.Begin(&sc.own, "test") {
		t.Fatal("engine tracer is disabled")
	}
	sc.trp = &sc.own
	allocs = testing.AllocsPerRun(50, func() { e.filter(e.cur.Load(), sc) })
	sc.own.Finish()
	if allocs != 0 {
		t.Fatalf("traced filter scan allocates %.1f objects per query, want 0", allocs)
	}
}

// TestFilterPathAllocsIndexed is the same zero-alloc contract on the
// indexed filter path: once the descent scratch is warm, serving a segment
// from the Hamming index (bucket descent, sort, verification) must not
// allocate either.
func TestFilterPathAllocsIndexed(t *testing.T) {
	const d = 10
	cfg := testConfig(t.TempDir(), d)
	cfg.HIndex = HIndexParams{Enable: true}
	e := openEngine(t, cfg)
	ingestClusters(t, e, 30, 6, d, 3)
	e.Compact() // seal: only sealed segments are indexed

	rng := rand.New(rand.NewSource(56))
	q := clusterObject("q", 3, d, 3, 0.02, rng)
	sc := getScratch()
	defer putScratch(sc)
	loadScratch(sc, q, e.buildSketchSet(q), QueryOptions{K: 10, Filter: FilterParams{NearestPerSegment: 8}})

	before := e.Telemetry().Value("ferret_hindex_probes_total")
	allocs := testing.AllocsPerRun(50, func() { e.filter(e.cur.Load(), sc) })
	if allocs != 0 {
		t.Fatalf("indexed filter allocates %.1f objects per query, want 0", allocs)
	}
	if e.Telemetry().Value("ferret_hindex_probes_total") == before {
		t.Fatal("filter never probed the Hamming index; the alloc check tested the scan path")
	}
}
