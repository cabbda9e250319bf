package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ferret/internal/metastore"
	"ferret/internal/object"
	"ferret/internal/sketch"
	"ferret/internal/synth"
	"ferret/internal/telemetry/trace"
)

// BenchmarkFilterScanArena measures the filtering unit's arena sweep and
// BenchmarkHammingIndexProbe its Hamming-index descent, each as a batch of
// one on the same workload — image-style 96-bit sketches, where per-segment
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

// benchFilter runs the filtering unit for one query as a batch of one, b.N
// times, after one warm-up pass that check (when non-nil) inspects.
func benchFilter(b *testing.B, e *Engine, q object.Object, qset *metastore.SketchSet, opt QueryOptions, check func(*queryScratch)) {
	sc := getScratch()
	defer putScratch(sc)
	loadScratch(sc, q, qset, opt)
	one := []*queryScratch{sc}
	e.filterBatch(e.cur.Load(), one)
	if len(sc.cands) == 0 {
		b.Fatal("no candidates")
	}
	if check != nil {
		check(sc)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.filterBatch(e.cur.Load(), one)
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

// BenchmarkFilterImage96 measures the filtering unit on the benchmark's
// image_engine shape: synth.MixedImageObjects under 96-bit sketches (three
// 32-bit substring tables), four sealed, indexed segments and a live tail,
// default filter parameters at K 20 (four query segments, 200 nearest each),
// cycling through 32 never-ingested queries. Every pair must be index-served:
// ns/op is then the k-nearest descent plus the tail sweep.
func BenchmarkFilterImage96(b *testing.B) {
	const objects = 20000
	max := make([]float32, 14)
	for i := range max {
		max[i] = 1
	}
	cfg := Config{
		Dir:      b.TempDir(),
		Sketch:   sketch.Params{N: 96, K: 1, Min: make([]float32, 14), Max: max, Seed: 201},
		HIndex:   HIndexParams{Enable: true},
		Segments: SegmentParams{SealEntries: objects/5 + 97, Interval: -1},
	}
	e, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	for _, o := range synth.MixedImageObjects(objects, 3) {
		if _, err := e.Ingest(o, nil); err != nil {
			b.Fatal(err)
		}
	}
	v := e.cur.Load()
	if len(v.sealed()) != 4 || v.tail().n == 0 {
		b.Fatalf("%d sealed segments and a %d-entry tail, want 4 and a live one", len(v.sealed()), v.tail().n)
	}
	var scs [32][]*queryScratch
	for i, q := range synth.MixedImageObjects(len(scs), 1001) {
		sc := getScratch()
		defer putScratch(sc)
		loadScratch(sc, q, e.buildSketchSet(q), QueryOptions{K: 20})
		scs[i] = []*queryScratch{sc}
		e.filterBatch(v, scs[i]) // warm the scratch
	}
	reg := e.Telemetry()
	verified, lookups := reg.Value("ferret_hindex_candidates_total"), reg.Value("ferret_hindex_lookups_total")
	fallbacks := reg.Value("ferret_hindex_fallback_total")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.filterBatch(v, scs[i%len(scs)])
	}
	b.StopTimer()
	if reg.Value("ferret_hindex_fallback_total") != fallbacks {
		b.Fatal("a pair fell back to the sweep: the benchmark would not measure the descent")
	}
	b.ReportMetric((reg.Value("ferret_hindex_candidates_total")-verified)/float64(b.N), "rows_verified/op")
	b.ReportMetric((reg.Value("ferret_hindex_lookups_total")-lookups)/float64(b.N), "lookups/op")
}

// BenchmarkRankImage measures the rank stage alone on the benchmark's
// image_engine shape (BenchmarkFilterImage96's corpus and queries, rank
// threshold 2): each of the 32 queries is filtered once, then only rankStage
// is timed — the sketch lower bounds, their sort, the exact EMDs and their
// abandons. evals/op, pruned/op and abandoned/op say how the pruning tiers
// split the candidates, so a kernel change that moves them is visible here.
func BenchmarkRankImage(b *testing.B) {
	const objects = 20000
	max := make([]float32, 14)
	for i := range max {
		max[i] = 1
	}
	cfg := Config{
		Dir:           b.TempDir(),
		Sketch:        sketch.Params{N: 96, K: 1, Min: make([]float32, 14), Max: max, Seed: 201},
		RankThreshold: 2,
		HIndex:        HIndexParams{Enable: true},
		Segments:      SegmentParams{SealEntries: objects/5 + 97, Interval: -1},
	}
	e, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	for _, o := range synth.MixedImageObjects(objects, 3) {
		if _, err := e.Ingest(o, nil); err != nil {
			b.Fatal(err)
		}
	}
	v := e.cur.Load()
	if len(v.segs) != 5 {
		b.Fatalf("%d storage segments, want 5", len(v.segs))
	}
	var scs [32]*queryScratch
	for i, q := range synth.MixedImageObjects(len(scs), 1001) {
		sc := getScratch()
		defer putScratch(sc)
		loadScratch(sc, q, e.buildSketchSet(q), QueryOptions{K: 20})
		e.filterBatch(v, []*queryScratch{sc})
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

// The QueryPipeline pair measures end-to-end Filtering-mode queries with the
// sketch lower-bound EMD prune on (default) and off.

func benchPipeline(b *testing.B, disablePrune bool) {
	e, q, _ := benchEngine(b, func(cfg *Config) {
		cfg.RankThreshold = 2
		cfg.Prune.Disable = disablePrune
	})
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
	b.ReportMetric(reg.Value("ferret_rank_distance_evals_total")/float64(b.N), "emd_evals/op")
	b.ReportMetric(reg.Value("ferret_rank_emd_pruned_total")/float64(b.N), "emd_pruned/op")
}

func BenchmarkQueryPipelinePruned(b *testing.B)   { benchPipeline(b, false) }
func BenchmarkQueryPipelineUnpruned(b *testing.B) { benchPipeline(b, true) }

// BenchmarkQueryPipelineConcurrent drives Filtering-mode queries from eight
// closed-loop clients, each Search running on its client's goroutine: ns/op
// is the amortized per-query wall time under concurrent load, on the arena
// scan and on the Hamming index. Compare against BenchmarkQueryPipelinePruned
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
			scs := make([][]*queryScratch, len(queries))
			for i, q := range queries {
				sc := getScratch()
				defer putScratch(sc)
				loadScratch(sc, q, e.buildSketchSet(q), benchFilterOpts())
				scs[i] = []*queryScratch{sc}
				e.filterBatch(v, scs[i]) // warm the scratch
			}
			reg := e.Telemetry()
			fallbacks, lookups := reg.Value("ferret_hindex_fallback_total"), reg.Value("ferret_hindex_lookups_total")
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.filterBatch(v, scs[i%len(scs)])
			}
			b.StopTimer()
			b.ReportMetric((reg.Value("ferret_hindex_fallback_total")-fallbacks)/float64(b.N), "fallbacks/op")
			b.ReportMetric((reg.Value("ferret_hindex_lookups_total")-lookups)/float64(b.N), "lookups/op")
		})
	}
}
