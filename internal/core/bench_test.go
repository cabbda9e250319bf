package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ferret/internal/kvstore"
	"ferret/internal/metastore"
	"ferret/internal/object"
	"ferret/internal/sketch"
	"ferret/internal/synth"
	"ferret/internal/telemetry/trace"
)

// BenchmarkFilterScanArena measures the filtering unit's arena sweep and
// BenchmarkHammingIndexProbe its Hamming-index descent, each on the same
// workload — image-style 96-bit sketches, where per-segment
// call overhead (not memory bandwidth) dominates.

const (
	benchDim     = 14
	benchObjects = 5000
	benchSegs    = 4
	benchBits    = 96
)

func benchEngine(b *testing.B, tune func(*Config)) (*Engine, object.Object, *metastore.SketchSet) {
	b.Helper()
	min := make([]float32, benchDim)
	max := make([]float32, benchDim)
	for i := range max {
		max[i] = 1
	}
	cfg := Config{
		Dir:    b.TempDir(),
		Sketch: sketch.Params{N: benchBits, K: 1, Min: min, Max: max, Seed: 80},
	}
	if tune != nil {
		tune(&cfg)
	}
	e, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	rng := rand.New(rand.NewSource(81))
	for i := 0; i < benchObjects; i++ {
		o := clusterObject(fmt.Sprintf("b%05d", i), i%64, benchDim, benchSegs, 0.02, rng)
		if _, err := e.Ingest(o, nil); err != nil {
			b.Fatal(err)
		}
	}
	e.Compact() // one sealed (indexed) segment and an empty tail
	q := clusterObject("q", 11, benchDim, benchSegs, 0.02, rng)
	return e, q, e.buildSketchSet(q)
}

func benchFilterOpts() QueryOptions {
	// Mirror the experiments harness's speed-run filter shape.
	return QueryOptions{K: 10, Filter: FilterParams{QuerySegments: 3, NearestPerSegment: 50}}
}

// benchFilter runs the filtering unit for one query b.N times, after one
// warm-up pass that check (when non-nil) inspects.
func benchFilter(b *testing.B, e *Engine, q object.Object, qset *metastore.SketchSet, opt QueryOptions, check func(*queryScratch)) {
	sc := getScratch()
	defer putScratch(sc)
	loadScratch(sc, q, qset, opt)
	e.filter(e.cur.Load(), sc)
	if len(sc.cands) == 0 {
		b.Fatal("no candidates")
	}
	if check != nil {
		check(sc)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.filter(e.cur.Load(), sc)
	}
}

func BenchmarkFilterScanArena(b *testing.B) {
	e, q, qset := benchEngine(b, nil)
	benchFilter(b, e, q, qset, benchFilterOpts(), nil)
}

// BenchmarkFilterRestrict measures the filter under a Restrict set (the
// server's attribute-combined queries) from ten allowed objects to half the
// corpus: no benchmark workload sets one, so this is where that traffic is
// measured.
func BenchmarkFilterRestrict(b *testing.B) {
	for _, n := range []int{10, 50, 500, 2500} {
		b.Run(fmt.Sprintf("ids=%d", n), func(b *testing.B) {
			e, q, qset := benchEngine(b, nil)
			opt := benchFilterOpts()
			opt.Restrict = map[object.ID]bool{}
			for _, i := range rand.New(rand.NewSource(82)).Perm(benchObjects)[:n] {
				opt.Restrict[e.cur.Load().entries[i].id] = true
			}
			benchFilter(b, e, q, qset, opt, nil)
		})
	}
}

// BenchmarkHammingIndexProbe measures the indexed filter path end to end —
// bucket descent across the substring tables, candidate sort/dedup, and
// kernel verification — on the same corpus BenchmarkFilterScanArena streams
// in full. The tight Hamming threshold keeps the query inside the index's
// exact radius so every probe is served by the index; the guard below fails
// the benchmark rather than silently measuring the scan fallback.
func BenchmarkHammingIndexProbe(b *testing.B) {
	e, q, qset := benchEngine(b, func(cfg *Config) {
		cfg.HIndex = HIndexParams{Enable: true}
	})
	opt := QueryOptions{K: 10, Filter: FilterParams{QuerySegments: 3, NearestPerSegment: 50, MaxHammingFrac: 0.03}}
	benchFilter(b, e, q, qset, opt, func(sc *queryScratch) {
		if mode := sc.filterMode(); mode != FilterModeIndex {
			b.Fatalf("filter mode %q, want %q: the benchmark would measure the scan fallback", mode, FilterModeIndex)
		}
	})
}

// imageBenchEngine is the benchmark's image_engine shape: synth.MixedImageObjects
// under 96-bit sketches (three 32-bit substring tables), four sealed, indexed
// segments and a live tail, rank threshold 2.
func imageBenchEngine(b *testing.B) *Engine {
	const objects = 20000
	max := make([]float32, 14)
	for i := range max {
		max[i] = 1
	}
	e, err := Open(Config{
		Dir:           b.TempDir(),
		Sketch:        sketch.Params{N: 96, K: 1, Min: make([]float32, 14), Max: max, Seed: 201},
		RankThreshold: 2,
		HIndex:        HIndexParams{Enable: true},
		Segments:      SegmentParams{SealEntries: objects/5 + 97, Interval: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	for _, o := range synth.MixedImageObjects(objects, 3) {
		if _, err := e.Ingest(o, nil); err != nil {
			b.Fatal(err)
		}
	}
	if v := e.cur.Load(); len(v.sealed()) != 4 || v.tail().n == 0 {
		b.Fatalf("%d sealed segments and a %d-entry tail, want 4 and a live one", len(v.sealed()), v.tail().n)
	}
	return e
}

// BenchmarkFilterImage96 measures the filtering unit on imageBenchEngine's corpus
// at default filter parameters and K 20 (four query segments, 200 nearest
// each), cycling through 32 never-ingested queries. Every pair must be
// index-served: ns/op is then the k-nearest descent plus the tail sweep.
func BenchmarkFilterImage96(b *testing.B) {
	e := imageBenchEngine(b)
	v := e.cur.Load()
	var scs [32]*queryScratch
	for i, q := range synth.MixedImageObjects(len(scs), 1001) {
		sc := getScratch()
		defer putScratch(sc)
		loadScratch(sc, q, e.buildSketchSet(q), QueryOptions{K: 20})
		scs[i] = sc
		e.filter(v, sc) // warm the scratch
	}
	reg := e.Telemetry()
	verified, lookups := reg.Value("ferret_hindex_candidates_total"), reg.Value("ferret_hindex_lookups_total")
	fallbacks := reg.Value("ferret_hindex_fallback_total")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.filter(v, scs[i%len(scs)])
	}
	b.StopTimer()
	if reg.Value("ferret_hindex_fallback_total") != fallbacks {
		b.Fatal("a pair fell back to the sweep: the benchmark would not measure the descent")
	}
	b.ReportMetric((reg.Value("ferret_hindex_candidates_total")-verified)/float64(b.N), "rows_verified/op")
	b.ReportMetric((reg.Value("ferret_hindex_lookups_total")-lookups)/float64(b.N), "lookups/op")
}

// BenchmarkTailSweepImage measures the live tail's arena sweep alone on
// imageBenchEngine's corpus and BenchmarkFilterImage96's queries, with the
// heaps the sealed segments' descent leaves — the filter's last sweep. Each
// op restores one query's post-descent heaps, then sweeps the tail for all
// its pairs; rows/op is the tail rows the kernel scored.
func BenchmarkTailSweepImage(b *testing.B) {
	e := imageBenchEngine(b)
	v := e.cur.Load()
	tail := v.tail()
	type query struct {
		sc    *queryScratch
		heaps []segHeap // the descent's heaps, restored before every sweep
	}
	var qs [32]query
	for i, q := range synth.MixedImageObjects(len(qs), 1001) {
		sc := getScratch()
		defer putScratch(sc)
		loadScratch(sc, q, e.buildSketchSet(q), QueryOptions{K: 20})
		e.buildPairs(v, sc)
		e.indexDescent(v, sc)
		if len(sc.spairs) > 0 {
			b.Fatal("a pair fell back to the sweep: its heap would not be the descent's")
		}
		qs[i].sc = sc
		for _, p := range sc.pairs {
			h := *p.heap
			h.cnt, h.pairs = slices.Clone(h.cnt), slices.Clone(h.pairs)
			qs[i].heaps = append(qs[i].heaps, h)
		}
		e.arenaSweep(v, tail, sc, sc.pairs) // warm the scratch
	}
	rows := 0
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := &qs[i%len(qs)]
		for j, p := range q.sc.pairs {
			cnt, pairs := p.heap.cnt, p.heap.pairs
			*p.heap = q.heaps[j]
			p.heap.cnt, p.heap.pairs = append(cnt[:0], q.heaps[j].cnt...), append(pairs[:0], q.heaps[j].pairs...)
		}
		rows += e.arenaSweep(v, tail, q.sc, q.sc.pairs)
	}
	b.StopTimer()
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

// BenchmarkRankImage measures the rank stage alone on imageBenchEngine's corpus
// and BenchmarkFilterImage96's queries: each of the 32 queries is filtered
// once, then only rankStage is timed — the sketch lower bounds, their sort,
// the exact EMDs and their abandons. evals/op, pruned/op and abandoned/op
// say how the pruning tiers split the candidates, so a kernel change that
// moves them is visible here.
func BenchmarkRankImage(b *testing.B) {
	e := imageBenchEngine(b)
	v := e.cur.Load()
	var scs [32]*queryScratch
	for i, q := range synth.MixedImageObjects(len(scs), 1001) {
		sc := getScratch()
		defer putScratch(sc)
		loadScratch(sc, q, e.buildSketchSet(q), QueryOptions{K: 20})
		e.filter(v, sc)
		e.rankStage(v, sc) // warm the scratch and the EMD workspace pool
		scs[i] = sc
	}
	evals, pruned, abandoned := 0, 0, 0
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := scs[i%len(scs)]
		e.rankStage(v, sc)
		evals, pruned, abandoned = evals+sc.rankEvals, pruned+sc.rankPruned, abandoned+sc.rankAbandoned
	}
	b.StopTimer()
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	b.ReportMetric(float64(pruned)/float64(b.N), "pruned/op")
	b.ReportMetric(float64(abandoned)/float64(b.N), "abandoned/op")
}

// BenchmarkLowerBoundsImage measures the rank stage's first phase alone on
// BenchmarkRankImage's filtered queries: each candidate's sketch lower bound
// and their sort, with no feature vector touched. cands/op is the candidate
// count the pass bounds.
func BenchmarkLowerBoundsImage(b *testing.B) {
	e := imageBenchEngine(b)
	v := e.cur.Load()
	var scs [32]*queryScratch
	for i, q := range synth.MixedImageObjects(len(scs), 1001) {
		sc := getScratch()
		defer putScratch(sc)
		loadScratch(sc, q, e.buildSketchSet(q), QueryOptions{K: 20})
		e.filter(v, sc)
		e.lowerBounds(v, sc.cands, e.cfg.SqrtWeights, sc) // warm the scratch
		scs[i] = sc
	}
	cands := 0
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := scs[i%len(scs)]
		cands += len(e.lowerBounds(v, sc.cands, e.cfg.SqrtWeights, sc))
	}
	b.StopTimer()
	b.ReportMetric(float64(cands)/float64(b.N), "cands/op")
}

// BenchmarkSearchBatch measures SearchBatch, 8 queries per op at K 20, on two
// corpora: imageBenchEngine's (four sealed segments and a live tail, EMD-ranked)
// and 40 000 single-segment 544-d shapes under 800-bit sketches in a default
// indexed engine. The serial sub-benchmark runs the same 8 queries as 8
// Search calls on one goroutine — the baseline a batch has to beat. Run at
// -cpu 1,2: at 1 the batch can only match it.
func BenchmarkSearchBatch(b *testing.B) {
	const batch = 8
	corpora := []struct {
		name    string
		open    func(b *testing.B) *Engine
		queries []object.Object
	}{
		{"image", imageBenchEngine, synth.MixedImageObjects(batch, 1001)},
		{"shape", shapeBenchEngine, synth.MixedShapeObjects(batch, 909)},
	}
	for _, c := range corpora {
		b.Run(c.name, func(b *testing.B) {
			e := c.open(b)
			ctx, opt := context.Background(), QueryOptions{K: 20}
			b.Run("batch", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, errs := e.SearchBatch(ctx, c.queries, opt); errs[0] != nil {
						b.Fatal(errs[0])
					}
				}
			})
			b.Run("serial", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, q := range c.queries {
						if _, err := e.Search(ctx, q, opt); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		})
	}
}

// shapeBenchEngine is the benchmark's shape corpus: 40 000 single-segment
// 544-d shapes (synth.MixedShapeObjects) under 800-bit sketches with the
// Hamming index on, compacted into one sealed segment.
func shapeBenchEngine(b *testing.B) *Engine {
	const objects, dim = 40000, 544
	max := make([]float32, dim)
	for i := range max {
		max[i] = 2
	}
	e, err := Open(Config{
		Dir:      b.TempDir(),
		Sketch:   sketch.Params{N: 800, K: 1, Min: make([]float32, dim), Max: max, Seed: 203},
		Store:    kvstore.Options{Sync: kvstore.SyncPeriodic, SyncInterval: time.Second},
		HIndex:   HIndexParams{Enable: true},
		Segments: SegmentParams{Interval: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	for _, o := range synth.MixedShapeObjects(objects, 301) {
		if _, err := e.Ingest(o, nil); err != nil {
			b.Fatal(err)
		}
	}
	e.Compact()
	return e
}

// BenchmarkQueryPipeline measures end-to-end Filtering-mode queries. Beside
// ns/op it reports the ranking unit's work: candidates/op is what an
// unpruned rank would evaluate, emd_evals/op and emd_pruned/op what the
// sketch lower-bound prune left and skipped.
func BenchmarkQueryPipeline(b *testing.B) {
	e, q, _ := benchEngine(b, func(cfg *Config) { cfg.RankThreshold = 2 })
	opt := benchFilterOpts()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runQuery(e, q, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reg := e.Telemetry()
	b.ReportMetric(reg.Value("ferret_filter_candidates_total")/float64(b.N), "candidates/op")
	b.ReportMetric(reg.Value("ferret_rank_distance_evals_total")/float64(b.N), "emd_evals/op")
	b.ReportMetric(reg.Value("ferret_rank_emd_pruned_total")/float64(b.N), "emd_pruned/op")
}

// BenchmarkQueryPipelineConcurrent drives Filtering-mode queries from eight
// closed-loop clients, each Search running on its client's goroutine: ns/op
// is the amortized per-query wall time under concurrent load, on the arena
// scan and on the Hamming index. Compare against BenchmarkQueryPipeline
// (the one-query-at-a-time cost) and run at -cpu 1,2 to see how the clients
// spread over cores.
func BenchmarkQueryPipelineConcurrent(b *testing.B) { benchConcurrent(b, false) }

// BenchmarkQueryPipelineTraced is BenchmarkQueryPipelineConcurrent with the
// tracer recording every query but retaining none (head sampling and the
// slow trigger disabled): the cost of always-on span recording alone, with
// the retention snapshot path never taken — compare against the untraced
// benchmark above: tracing should stay ~free on the hot path.
func BenchmarkQueryPipelineTraced(b *testing.B) { benchConcurrent(b, true) }

// benchConcurrent runs the eight-client closed loop as two sub-benchmarks,
// scan and index, over the benchEngine corpus.
func benchConcurrent(b *testing.B, traced bool) {
	for _, index := range []bool{false, true} {
		name := "scan"
		if index {
			name = "index"
		}
		b.Run(name, func(b *testing.B) {
			e, q, _ := benchEngine(b, func(cfg *Config) {
				cfg.RankThreshold = 2
				cfg.HIndex.Enable = index
				if traced {
					cfg.Trace = trace.Params{SampleEvery: -1, SlowThreshold: -1}
				}
			})
			opt := benchFilterOpts()
			b.SetParallelism(8) // 8 client goroutines at GOMAXPROCS=1
			b.ResetTimer()
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := runQuery(e, q, opt); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			if got := e.Telemetry().Value("ferret_traces_retained_total"); traced && got != 0 {
				b.Fatalf("%g traces retained with retention disabled", got)
			}
		})
	}
}

// BenchmarkFilterSmallCorpus measures the filtering unit where the Hamming
// index is known to pay least: 5 000 single-segment 544-d shape objects
// (synth.MixedShapeObjects, 800-bit sketches) fed online into a default
// engine that is never compacted — four sealed 1024-entry segments and a
// 904-entry tail — at the speed-run filter shape (k 50 nearest per query
// segment), cycling through 16 never-ingested queries. The index and scan
// sub-benchmarks run the same corpus; fallbacks/op counts index descents
// that gave up for the sweep, lookups/op the bucket look-ups made.
func BenchmarkFilterSmallCorpus(b *testing.B) {
	const objects, dim = 5000, 544
	max := make([]float32, dim)
	for i := range max {
		max[i] = 2
	}
	objs := synth.MixedShapeObjects(objects, 301)
	queries := synth.MixedShapeObjects(16, 909)
	for _, index := range []bool{true, false} {
		name := "scan"
		if index {
			name = "index"
		}
		b.Run(name, func(b *testing.B) {
			cfg := Config{
				Dir:    b.TempDir(),
				Sketch: sketch.Params{N: 800, K: 1, Min: make([]float32, dim), Max: max, Seed: 203},
				HIndex: HIndexParams{Enable: index},
				// No background merges: the segment layout stays as fed.
				Segments: SegmentParams{Interval: -1},
			}
			e, err := Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { e.Close() })
			for _, o := range objs {
				if _, err := e.Ingest(o, nil); err != nil {
					b.Fatal(err)
				}
			}
			v := e.cur.Load()
			scs := make([]*queryScratch, len(queries))
			for i, q := range queries {
				sc := getScratch()
				defer putScratch(sc)
				loadScratch(sc, q, e.buildSketchSet(q), benchFilterOpts())
				scs[i] = sc
				e.filter(v, sc) // warm the scratch
			}
			reg := e.Telemetry()
			fallbacks, lookups := reg.Value("ferret_hindex_fallback_total"), reg.Value("ferret_hindex_lookups_total")
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.filter(v, scs[i%len(scs)])
			}
			b.StopTimer()
			b.ReportMetric((reg.Value("ferret_hindex_fallback_total")-fallbacks)/float64(b.N), "fallbacks/op")
			b.ReportMetric((reg.Value("ferret_hindex_lookups_total")-lookups)/float64(b.N), "lookups/op")
		})
	}
}

// BenchmarkRankShapeCold measures one cold shape query's filter and rank
// stages on shapeBenchEngine's corpus (40 000 single-segment 544-d shapes,
// 800-bit sketches, indexed and compacted) at K 20: the index descent, the
// sketch lower bounds and the walk over the candidates' records. The 256
// queries are the next objects of the corpus's own stream, never ingested,
// and are cycled in order, so the ~50 000 candidate records one cycle
// touches — about 110 MB — leave each query's candidates cold in L2.
// positions/op is the walk positions evaluated, abandoned ones included.
func BenchmarkRankShapeCold(b *testing.B) {
	const objects, queries = 40000, 256
	e := shapeBenchEngine(b)
	v := e.cur.Load()
	scs := make([]*queryScratch, queries)
	for i, q := range synth.MixedShapeObjects(objects+queries, 301)[objects:] {
		sc := getScratch()
		defer putScratch(sc)
		loadScratch(sc, q, e.buildSketchSet(q), QueryOptions{K: 20})
		e.filter(v, sc)
		e.rankStage(v, sc) // warm the scratch
		scs[i] = sc
	}
	positions := 0
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := scs[i%len(scs)]
		e.filter(v, sc)
		e.rankStage(v, sc)
		positions += sc.rankEvals + sc.rankAbandoned
	}
	b.StopTimer()
	b.ReportMetric(float64(positions)/float64(b.N), "positions/op")
}
