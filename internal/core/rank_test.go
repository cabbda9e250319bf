package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"ferret/internal/object"
	"ferret/internal/sketch"
	"ferret/internal/synth"
	"ferret/internal/telemetry/trace"
)

// imageEngine opens an engine configured like the benchmark's image_engine
// workload (14-d segments, 96-bit sketches, rank threshold 2, Hamming index,
// several sealed storage segments, no background compactor) over n
// MixedImageObjects; tune, when given, adjusts the configuration first.
func imageEngine(t testing.TB, n int, tune ...func(*Config)) *Engine {
	t.Helper()
	min, max := make([]float32, 14), make([]float32, 14)
	for i := range max {
		max[i] = 1
	}
	cfg := Config{
		Dir:           t.TempDir(),
		Sketch:        sketch.Params{N: 96, K: 1, Min: min, Max: max, Seed: 201},
		RankThreshold: 2.0,
		HIndex:        HIndexParams{Enable: true},
		Segments:      SegmentParams{SealEntries: n/5 + 1, Interval: -1},
	}
	for _, f := range tune {
		f(&cfg)
	}
	e := openEngine(t, cfg)
	for _, o := range synth.MixedImageObjects(n, 3) {
		if _, err := e.Ingest(o, nil); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func imageQueries(n int) []object.Object {
	qs := synth.MixedImageObjects(n, 1001)
	for i := range qs {
		qs[i].Key = "q-" + qs[i].Key
	}
	return qs
}

// TestRankPathAllocs is TestFilterPathAllocs for the rank stage: a
// steady-state Filtering query over a multi-segment image corpus allocates a
// fixed handful of objects, none of them per candidate — the EMD workspace,
// the lower-bound scratch and the candidate list are all pooled. Measured: 5
// plus one per query segment (11–20 here). The per-segment ones are the
// query's sketches; the 5 are the sketch set and its two slices, the top-K
// heap and the sorted answer slice. The bound of 64 leaves room for a query of 40
// segments and still fails on a single allocation per candidate. The engine
// is opened at GOMAXPROCS 2, so its helper takes shares of the descent, the
// lower bounds and the EMD walk.
func TestRankPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e := imageEngine(t, 2000)
	qs := imageQueries(8)
	opt := QueryOptions{K: 20}
	search := func(q object.Object) {
		ans, err := e.Search(context.Background(), q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Results) != opt.K {
			t.Fatalf("got %d results, want %d", len(ans.Results), opt.K)
		}
	}
	for _, q := range qs {
		search(q) // warm the pools
	}
	evals := e.Telemetry().Value("ferret_rank_distance_evals_total")
	for _, q := range qs {
		q := q
		if allocs := testing.AllocsPerRun(10, func() { search(q) }); allocs > 64 {
			t.Errorf("query %s: Search allocates %.0f objects, want ≤ 64", q.Key, allocs)
		}
	}
	if e.Telemetry().Value("ferret_rank_distance_evals_total") == evals {
		t.Fatal("no EMD was evaluated; the alloc check never reached the rank stage")
	}
}

// TestEstimateTable: the rank stage's Hamming→estimate table holds, for every
// Hamming distance a sketch can take, exactly the value the per-cell
// estimator gives — EstimateL1(h), capped at the rank threshold — for both
// benchmark widths, the K = 1 shortcut and the math.Pow branch of XOR-folded
// sketches, with and without a threshold.
func TestEstimateTable(t *testing.T) {
	for _, bitsN := range []int{96, 800} {
		for _, k := range []int{1, 3} {
			for _, threshold := range []float64{0, 2} {
				name := fmt.Sprintf("N=%d/K=%d/threshold=%g", bitsN, k, threshold)
				min, max := make([]float32, 14), make([]float32, 14)
				for i := range max {
					max[i] = 1
				}
				b, err := sketch.NewBuilder(sketch.Params{N: bitsN, K: k, Min: min, Max: max, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				est := estimateTable(b, threshold)
				if len(est) != bitsN+1 {
					t.Fatalf("%s: %d entries, want %d", name, len(est), bitsN+1)
				}
				capped := 0
				for h, got := range est {
					want := b.EstimateL1(h)
					if threshold > 0 && want > threshold {
						want = threshold
						capped++
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: est[%d] = %x, estimator %x", name, h, math.Float64bits(got), math.Float64bits(want))
					}
				}
				if threshold > 0 && capped == 0 {
					t.Fatalf("%s: no entry reached the threshold; the cap is untested", name)
				}
			}
		}
	}
}

// TestEstimateTableMonotone pins the property sketchLowerBound's cross-min
// rests on: est[h] ≤ est[h+1] for every sketch width from 64 to 1 024 bits,
// XOR-fold factors 1–4, with and without a rank-threshold cap. Were it
// broken, est[min h] could exceed min est[h] and the lower bound would move.
func TestEstimateTableMonotone(t *testing.T) {
	min, max := make([]float32, 14), make([]float32, 14)
	for i := range max {
		max[i] = 1
	}
	for bitsN := 64; bitsN <= 1024; bitsN++ {
		for k := 1; k <= 4; k++ {
			b, err := sketch.NewBuilder(sketch.Params{N: bitsN, K: k, Min: min, Max: max, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			for _, threshold := range []float64{0, 2} {
				est := estimateTable(b, threshold)
				for h := 0; h+1 < len(est); h++ {
					if !(est[h] <= est[h+1]) {
						t.Fatalf("N=%d K=%d threshold=%g: est[%d] = %v > est[%d] = %v", bitsN, k, threshold, h, est[h], h+1, est[h+1])
					}
				}
			}
		}
	}
}

// allocsPerQuery runs query runs times at GOMAXPROCS 1 and returns the heap
// objects and bytes it allocated per run. The collector is off meanwhile: a
// collection empties the sync.Pools, and refilling them would be counted.
func allocsPerQuery(runs int, query func()) (objs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	query() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		query()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSearchByIDAllocs: a by-ID query views its stored record in place
// (metastore.ViewRecord into pooled scratch) instead of decoding a copy, and
// its sketches over the published view's arena rows (storedSketches) instead
// of building them, so it answers as Search with the same object in hand
// does while allocating only the top-K heap and the sorted answer: 2 objects.
// Search builds its sketches into the pooled scratch (sketchInto), so it
// allocates the same 2; before that it allocated 6 (the sketch set, its two
// slices and the one sketch). With both at 2, allocation no longer tells
// stored sketches from built ones, so each path also runs once on fresh
// scratch: the by-ID one must leave the build buffer (bwords) empty, while
// Search's fills it.
// Measured on 3 000 544-d shapes before the record view: 9.1 objects /
// 3 970 B a by-ID query against 6.1 / 1 610 B; before the sketch view, 6.0 /
// 1 596 B, as Search.
func TestSearchByIDAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under -race")
	}
	const n, dim = 1000, 544
	max := make([]float32, dim)
	for i := range max {
		max[i] = 2
	}
	e := openEngine(t, Config{
		Dir:      t.TempDir(),
		Sketch:   sketch.Params{N: 800, K: 1, Min: make([]float32, dim), Max: max, Seed: 203},
		HIndex:   HIndexParams{Enable: true},
		Segments: SegmentParams{Interval: -1},
		Trace:    trace.Params{SampleEvery: -1, SlowThreshold: -1}, // a retained trace allocates its snapshot
	})
	objs := synth.MixedShapeObjects(n, 301)
	ids := make([]object.ID, len(objs))
	for i, o := range objs {
		id, err := e.Ingest(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	e.Compact()
	opt := QueryOptions{K: 20}
	for _, i := range []int{0, 417, 999} {
		o, id := objs[i], ids[i]
		byObj, err := runQuery(e, o, opt)
		if err != nil {
			t.Fatal(err)
		}
		byID, err := runQueryByID(e, id, opt)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(byID) != fmt.Sprint(byObj) {
			t.Fatalf("object %d: SearchByID answered %v, Search %v", i, byID, byObj)
		}
		so, sb := allocsPerQuery(50, func() { runQuery(e, o, opt) })
		io, ib := allocsPerQuery(50, func() { runQueryByID(e, id, opt) })
		t.Logf("object %d: Search %.1f objects / %.0f B, SearchByID %.1f / %.0f B", i, so, sb, io, ib)
		if io > 2 || so > 2 || ib > sb {
			t.Errorf("object %d: SearchByID allocates %.1f objects / %.0f B a query and Search %.1f / %.0f B, want 2 each and no more bytes by ID", i, io, ib, so, sb)
		}
		byIDsc, objsc := new(queryScratch), new(queryScratch)
		if _, err := e.searchByIDIn(context.Background(), byIDsc, id, opt); err != nil {
			t.Fatal(err)
		}
		if _, err := e.searchIn(context.Background(), objsc, &o, nil, opt); err != nil {
			t.Fatal(err)
		}
		if len(byIDsc.bwords) != 0 || len(objsc.bwords) == 0 {
			t.Errorf("object %d: SearchByID built %d sketch words and Search %d: want none by ID", i, len(byIDsc.bwords), len(objsc.bwords))
		}
	}
}

// TestExactFilterAllocs: the exact-distance filter keeps its per-segment
// survivors in pooled scratch, so an ExactDistance query allocates within a
// few objects of a sketch-filtered one. Measured on 2 000 images before the
// pooling: ≈ 59.5 objects a query against 15.4.
func TestExactFilterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under -race")
	}
	e := imageEngine(t, 2000, func(cfg *Config) { cfg.Trace = trace.Params{SampleEvery: -1, SlowThreshold: -1} })
	for _, q := range imageQueries(4) {
		sketched := QueryOptions{K: 20}
		exact := QueryOptions{K: 20, Filter: FilterParams{ExactDistance: true}}
		so, _ := allocsPerQuery(10, func() { runQuery(e, q, sketched) })
		eo, _ := allocsPerQuery(10, func() { runQuery(e, q, exact) })
		t.Logf("query %s: sketch filter %.1f objects, exact filter %.1f", q.Key, so, eo)
		if eo > so+4 {
			t.Errorf("query %s: ExactDistance query allocates %.1f objects, sketch-filtered %.1f: want within 4", q.Key, eo, so)
		}
	}
}
