package core

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ferret/internal/metastore"
	"ferret/internal/object"
	"ferret/internal/sketch"
)

// refFilter is the naive reference for the filtering unit, sharing only the
// parameter defaults with it: for each of the query's r heaviest segments it
// computes the Hamming distance to every row of every live, unrestricted
// entry, sorts the lot by (hamming, entry), and keeps the first k within the
// weight-tightened threshold; the candidate set is the union of the owning
// entries, ascending.
func refFilter(e *Engine, v *view, qset *metastore.SketchSet, opt QueryOptions) []int {
	p := e.filterParams(&opt).withDefaults(len(qset.Sketches), opt.K)
	order := make([]int, len(qset.Sketches))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(qset.Weights[b], qset.Weights[a]) })

	type pair struct{ ham, entry int }
	union := map[int]bool{}
	for _, qi := range order[:p.QuerySegments] {
		frac := p.MaxHammingFrac * (1 - p.WeightTighten*float64(qset.Weights[qi]))
		maxHam := int(frac * float64(e.builder.N()))
		var all []pair
		for g := range v.entries {
			if v.isDead(g) || (opt.Restrict != nil && !opt.Restrict[v.entries[g].id]) {
				continue
			}
			seg, li := v.segOf(g)
			lo, hi := seg.arena.rowsOf(li)
			for row := lo; row < hi; row++ {
				all = append(all, pair{sketch.Hamming(qset.Sketches[qi], seg.arena.at(row)), g})
			}
		}
		slices.SortFunc(all, func(a, b pair) int {
			return cmp.Or(cmp.Compare(a.ham, b.ham), cmp.Compare(a.entry, b.entry))
		})
		for i := 0; i < len(all) && i < p.NearestPerSegment && all[i].ham <= maxHam; i++ {
			union[all[i].entry] = true
		}
	}
	out := make([]int, 0, len(union))
	for g := range union {
		out = append(out, g)
	}
	slices.Sort(out)
	return out
}

// TestFilterDifferential drives the filtering unit against the naive
// reference over seeded random configurations: Hamming index on/off, a lone
// unindexed tail or sealed (indexed) storage segments in front of one,
// tombstones — also inside indexed segments, where only the descent's verify
// step can drop them — merges, Compact() followed by more ingests, sketch-only
// stores, restricted queries, and groups of 1, 3 and 8 queries. Every request's
// candidate set must equal the reference's. A failure names its seed; rerun
// one with -run 'TestFilterDifferential/seed=N'.
func TestFilterDifferential(t *testing.T) {
	const seeds, d = 200, 8
	idxUnits, scanUnits, walked, restrictSwept := 0, 0, 0, 0
	// Requests an index served although (a) an unindexed tail had to be swept
	// beside it, (b) every indexed segment held tombstones, (c) the engine
	// had been compacted and then fed.
	tailBesideIndex, tombstonedIndex, compactThenIngest := 0, 0, 0
	// How descents ended: query groups settled in the index with more look-ups
	// than round 0 makes (served at substring radius ≥ 1), pairs settled by
	// covering their threshold with the heap not full, (pair, sealed segment)
	// units that fell back to the sweep, and requests a 96-bit engine's index
	// served.
	deepServed, coverageSettled, fellBack, served96 := 0, 0, 0, 0
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			cfg := testConfig(t.TempDir(), d)
			cfg.Sketch.N = []int{64, 96, 256}[rng.Intn(3)]
			cfg.SketchOnly = rng.Intn(4) == 0
			if rng.Intn(2) == 0 {
				cfg.HIndex = HIndexParams{Enable: true}
				// A threshold a few steps away lets a descent cover a query
				// outright instead of only when its heap fills.
				cfg.Filter.MaxHammingFrac = []float64{0, 0.04}[rng.Intn(2)]
			}
			// Half the engines seal every few entries, half never do.
			cfg.Segments = SegmentParams{SealEntries: 1 << 20, Interval: -1}
			if rng.Intn(2) == 0 {
				cfg.Segments.SealEntries = 8 + rng.Intn(24)
			}
			e := openEngine(t, cfg)

			// Many tight clusters keep index buckets selective, so descents
			// settle early; few loose ones send them rounds deep or back to
			// the sweep. Only in a corpus of a few thousand rows is a round of
			// one-bit neighbourhoods cheaper than the sweep.
			n := 40 + rng.Intn(80)
			if rng.Intn(6) == 0 {
				n *= 12
			}
			clusters := 2 + rng.Intn(30)
			noise := []float64{0.002, 0.01, 0.05}[rng.Intn(3)]
			var ids []object.ID
			for i := 0; i < n; i++ {
				o := clusterObject(fmt.Sprintf("o%03d", i), rng.Intn(clusters), d, 1+rng.Intn(4), noise, rng)
				id, err := e.Ingest(o, nil)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			if rng.Intn(3) > 0 { // tombstones
				for _, i := range rng.Perm(n)[:n/4] {
					if err := e.Delete(ids[i]); err != nil {
						t.Fatal(err)
					}
				}
				switch rng.Intn(4) {
				case 0:
					e.Compact()
				case 1:
					e.compactOnce()
				}
			}
			fed := rng.Intn(3) == 0
			if fed { // Compact(), then a tail beside (and tombstones inside) the sealed segment
				e.Compact()
				for i := 0; i < 4+rng.Intn(8); i++ {
					o := clusterObject(fmt.Sprintf("p%03d", i), rng.Intn(clusters), d, 1+rng.Intn(4), noise, rng)
					id, err := e.Ingest(o, nil)
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, id)
				}
				for _, i := range rng.Perm(n)[:rng.Intn(6)] {
					if err := e.Delete(ids[i]); err != nil { // no-op when already gone
						t.Fatal(err)
					}
				}
			}
			if err := e.checkNow(); err != nil {
				t.Fatal(err)
			}
			v := e.cur.Load()
			allTombstoned := len(v.sealed()) > 0
			nix, tables := 0, 0 // probed indexes and their table count
			for _, s := range v.sealed() {
				allTombstoned = allTombstoned && s.deleted > 0
				if s.probed() {
					nix++
					tables = s.hindex.Tables()
				}
			}

			for _, nq := range []int{1, 3, 8} {
				scs := make([]*queryScratch, nq)
				for i := range scs {
					q := clusterObject("q", rng.Intn(clusters+1), d, 1+rng.Intn(5), noise, rng)
					if rng.Intn(4) == 0 { // equal weights: selection must be stable
						for s := range q.Segments {
							q.Segments[s].Weight = 1
						}
					}
					opt := QueryOptions{K: 1 + rng.Intn(12)}
					if rng.Intn(2) == 0 {
						opt.Filter = FilterParams{
							QuerySegments:     rng.Intn(4),
							NearestPerSegment: []int{0, 1, 5, 500}[rng.Intn(4)],
							MaxHammingFrac:    []float64{0, 0.02, 0.05, 0.2}[rng.Intn(4)],
							WeightTighten:     []float64{0, 0.4}[rng.Intn(2)],
						}
					}
					if rng.Intn(3) == 0 {
						// Half the corpus is swept, an eighth walked entry by entry.
						opt.Restrict = map[object.ID]bool{}
						den := []int{2, 8}[rng.Intn(2)]
						for _, id := range ids {
							if rng.Intn(den) == 0 {
								opt.Restrict[id] = true
							}
						}
					}
					scs[i] = getScratch()
					defer putScratch(scs[i])
					loadScratch(scs[i], q, e.buildSketchSet(q), opt)
					scs[i].hasQ = !cfg.SketchOnly
				}
				lookups, fallbacks := e.met.hixLookups.Value(), e.met.hixFallback.Value()
				for _, sc := range scs {
					e.filter(v, sc)
				}
				lookups = e.met.hixLookups.Value() - lookups
				fellBack += int(e.met.hixFallback.Value() - fallbacks)
				settled, round0 := nix > 0, 0
				for i, sc := range scs {
					if want := refFilter(e, v, sc.qset, sc.opt); !slices.Equal(sc.cands, want) {
						t.Fatalf("seed %d, group of %d, request %d (%+v, mode %q):\n got %v\nwant %v",
							seed, nq, i, sc.opt.Filter, sc.filterMode(), sc.cands, want)
					}
					idxUnits += sc.idxSegs
					scanUnits += sc.scanSegs
					if sc.idxSegs > 0 && cfg.Sketch.N == 96 {
						served96++
					}
					round0 += len(sc.order) * tables * nix
					if nix > 0 && sc.idxSegs == len(sc.order)*nix { // every pair settled in the index
						for j := range sc.order {
							if !sc.heaps[j].full() {
								coverageSettled++
							}
						}
					} else {
						settled = false
					}
					if sc.idxSegs > 0 {
						if v.tail().liveEntries() > 0 {
							tailBesideIndex++
						}
						if allTombstoned {
							tombstonedIndex++
						}
						if fed {
							compactThenIngest++
						}
					}
					if sc.opt.Restrict != nil && sc.scanSegs > 0 {
						if sc.walk {
							walked++
						} else {
							restrictSwept++
						}
					}
				}
				if settled && int(lookups) > round0 {
					deepServed++
				}
			}
		})
	}
	t.Run("ties", testFilterTies)
	report := fmt.Sprintf("%d index-served, %d scan-served (query segment × storage segment) units; %d walked, %d swept restricted requests; "+
		"%d index-served requests beside a live tail, %d over tombstoned indexed segments, %d after Compact()-then-ingest; "+
		"%d groups served past round 0, %d pairs settled by covering their threshold, %d units fell back, %d requests served by a 96-bit index",
		idxUnits, scanUnits, walked, restrictSwept, tailBesideIndex, tombstonedIndex, compactThenIngest,
		deepServed, coverageSettled, fellBack, served96)
	if idxUnits == 0 || scanUnits == 0 || walked == 0 || restrictSwept == 0 ||
		tailBesideIndex == 0 || tombstonedIndex == 0 || compactThenIngest == 0 ||
		deepServed == 0 || coverageSettled == 0 || fellBack == 0 || served96 == 0 {
		t.Fatalf("%s: the seeds no longer reach every arm", report)
	}
	t.Log(report)
}

// testFilterTies is TestFilterDifferential's tie-heavy arm: zero-noise
// copies of three objects, so hundreds of rows share each distance and a
// pair's cut-off falls inside a run of equal distances, where only the entry
// order decides which pairs are kept. Swept and index-served engines, sealed
// segments with tombstones beside a live tail, k from 1 to 200.
func testFilterTies(t *testing.T) {
	const d = 8
	maxTies := 0 // most rows at one pair's cut-off distance
	for _, index := range []bool{false, true} {
		rng := rand.New(rand.NewSource(28))
		cfg := testConfig(t.TempDir(), d)
		cfg.Sketch.N = 96
		cfg.HIndex = HIndexParams{Enable: index}
		cfg.Segments = SegmentParams{SealEntries: 97, Interval: -1}
		e := openEngine(t, cfg)
		for i := 0; i < 600; i++ {
			id, err := e.Ingest(clusterObject(fmt.Sprintf("t%03d", i), rng.Intn(3), d, 1+rng.Intn(3), 0, rng), nil)
			if err != nil {
				t.Fatal(err)
			}
			if i%7 == 0 {
				if err := e.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		v := e.cur.Load()
		for i := 0; i < 16; i++ {
			q := clusterObject("q", rng.Intn(4), d, 1+rng.Intn(4), 0, rng)
			opt := QueryOptions{K: 10, Filter: FilterParams{NearestPerSegment: []int{1, 7, 50, 200}[i%4]}}
			sc := getScratch()
			defer putScratch(sc)
			loadScratch(sc, q, e.buildSketchSet(q), opt)
			e.filter(v, sc)
			if want := refFilter(e, v, sc.qset, sc.opt); !slices.Equal(sc.cands, want) {
				t.Fatalf("index %v, query %d (k %d, mode %q):\n got %v\nwant %v",
					index, i, opt.Filter.NearestPerSegment, sc.filterMode(), sc.cands, want)
			}
			for j, p := range sc.pairs {
				ties := 0
				for _, seg := range v.segs {
					for row := 0; row < seg.arena.rows(); row++ {
						if sketch.Hamming(p.qsk, seg.arena.at(row)) == sc.heaps[j].worst() {
							ties++
						}
					}
				}
				maxTies = max(maxTies, ties)
			}
		}
	}
	if maxTies < 100 {
		t.Fatalf("at most %d rows at a cut-off distance: the corpus no longer ties", maxTies)
	}
}

// TestFilterPathsSelectSameSegments: with equal weights the sketch filter
// and the exact-distance filter must both drive the filter with the query's
// first r segments. The query's first two segments sit in cluster 0 and its
// other fourteen (enough to take an unstable sort off its small-slice
// insertion path) in cluster 1, so a candidate from cluster 1 means a path
// picked a later segment.
func TestFilterPathsSelectSameSegments(t *testing.T) {
	const d = 8
	e := openEngine(t, testConfig(t.TempDir(), d))
	ids := ingestClusters(t, e, 2, 12, d, 1)
	inCluster0 := map[int]bool{}
	for g, ent := range e.cur.Load().entries {
		inCluster0[g] = slices.Contains(ids[0], ent.id)
	}

	rng := rand.New(rand.NewSource(77))
	near := func(cluster int) []float32 { return clusterObject("", cluster, d, 1, 0.01, rng).Segments[0].Vec }
	weights, vecs := make([]float32, 16), make([][]float32, 16)
	for s := range vecs {
		weights[s] = 1
		vecs[s] = near(min(s/2, 1))
	}
	q, err := object.New("q", weights, vecs)
	if err != nil {
		t.Fatal(err)
	}
	if got := topSegments(nil, weights, 2); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("topSegments on equal weights = %v, want [0 1]", got)
	}

	for _, exact := range []bool{false, true} {
		sc := getScratch()
		defer putScratch(sc)
		opt := QueryOptions{K: 5, Filter: FilterParams{QuerySegments: 2, NearestPerSegment: 4, ExactDistance: exact}}
		loadScratch(sc, q, e.buildSketchSet(q), opt)
		e.run(sc)
		if sc.err != nil {
			t.Fatal(sc.err)
		}
		if len(sc.cands) == 0 {
			t.Fatalf("exact=%v: no candidates", exact)
		}
		for _, g := range sc.cands {
			if !inCluster0[g] {
				t.Fatalf("exact=%v: candidate %d is from cluster 1: the filter was driven by a later query segment", exact, g)
			}
		}
	}
}

// TestExactFilterBreaksTiesByEntry: the exact-distance filter keeps the k
// smallest (distance, entry) pairs, like the sketch path. Thirty objects sit
// at one of three distances from the query, most of them duplicates at the
// middle one, so k = 3 cuts through a run of equally distant entries after
// enough of them (> 4k) to force a trim on the way: a cut ordered by distance
// alone keeps whichever duplicates its unstable sorts left in front.
func TestExactFilterBreaksTiesByEntry(t *testing.T) {
	const d, n, k = 8, 30, 3
	base := clusterObject("", 0, d, 1, 0.01, rand.New(rand.NewSource(91))).Segments[0].Vec
	q := object.Single("q", base)
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := openEngine(t, testConfig(t.TempDir(), d))
		type scored struct {
			off   float32
			entry int
		}
		var all []scored
		for i := 0; i < n; i++ {
			off := []float32{0.05, 0.05, 0.05, 0.02, 0.08}[rng.Intn(5)]
			v := slices.Clone(base)
			v[0] += off
			if _, err := e.Ingest(object.Single(fmt.Sprintf("o%02d", i), v), nil); err != nil {
				t.Fatal(err)
			}
			all = append(all, scored{off, i})
		}
		slices.SortFunc(all, func(a, b scored) int { return cmp.Or(cmp.Compare(a.off, b.off), cmp.Compare(a.entry, b.entry)) })
		var want []int
		for _, s := range all[:k] {
			want = append(want, s.entry)
		}
		slices.Sort(want)

		sc := getScratch()
		defer putScratch(sc)
		loadScratch(sc, q, e.buildSketchSet(q), QueryOptions{K: 1, Filter: FilterParams{NearestPerSegment: k, ExactDistance: true}})
		e.run(sc)
		if sc.err != nil {
			t.Fatal(sc.err)
		}
		if !slices.Equal(sc.cands, want) {
			t.Fatalf("seed %d: candidates %v, want the %d smallest (distance, entry) pairs %v", seed, sc.cands, k, want)
		}
	}
}

// goid returns the calling goroutine's ID, parsed from its stack header
// ("goroutine 42 [running]:").
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestSingleQueryRanksInline: a query ranked by a plug-in ObjectDistance
// ranks on the goroutine that asked for it — a lone Search and a SearchBatch
// of one hand no plug-in call to another goroutine (the built-in EMD's walk
// is what the engine shares with idle helpers, DESIGN.md §7). The
// object-distance plug-in records the goroutines it runs on.
// Positive control: with two Ps, a batch of several spreads its queries over
// more than one goroutine.
func TestSingleQueryRanksInline(t *testing.T) {
	const d = 8
	var mu sync.Mutex
	ranked := map[string]bool{}
	var slow atomic.Bool
	cfg := testConfig(t.TempDir(), d)
	cfg.ObjectDistance = func(a, b object.Object) float64 {
		mu.Lock()
		ranked[goid()] = true
		mu.Unlock()
		if slow.Load() {
			time.Sleep(time.Millisecond) // long enough for the batch's second goroutine to start
		}
		return float64(len(a.Segments) + len(b.Segments))
	}
	e := openEngine(t, cfg)
	ingestClusters(t, e, 4, 6, d, 2)
	rng := rand.New(rand.NewSource(88))
	qs := make([]object.Object, 4)
	for i := range qs {
		qs[i] = clusterObject("q", i, d, 2, 0.02, rng)
	}
	rankers := func() map[string]bool {
		mu.Lock()
		defer mu.Unlock()
		got := maps.Clone(ranked)
		clear(ranked)
		return got
	}

	ctx, caller := context.Background(), goid()
	if _, err := e.Search(ctx, qs[0], QueryOptions{K: 3}); err != nil {
		t.Fatal(err)
	}
	if got := rankers(); len(got) != 1 || !got[caller] {
		t.Fatalf("a Search ranked on goroutines %v, want only the caller's %s", got, caller)
	}
	if _, errs := e.SearchBatch(ctx, qs[:1], QueryOptions{K: 3}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if got := rankers(); len(got) != 1 || !got[caller] {
		t.Fatalf("a SearchBatch of one ranked on goroutines %v, want only the caller's %s", got, caller)
	}

	if runtime.GOMAXPROCS(0) < 2 {
		return
	}
	slow.Store(true)
	if _, errs := e.SearchBatch(ctx, qs, QueryOptions{K: 3}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if got := rankers(); len(got) < 2 {
		t.Fatalf("a batch of four ranked on goroutines %v only: the check cannot tell inline from spread", got)
	}
}
