package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ferret/internal/attr"
	"ferret/internal/object"
	"ferret/internal/sketch"
)

// testConfig builds an engine config for a d-dimensional unit-cube feature
// space with generous sketch size.
func testConfig(dir string, d int) Config {
	min := make([]float32, d)
	max := make([]float32, d)
	for i := range max {
		max[i] = 1
	}
	return Config{
		Dir:    dir,
		Sketch: sketch.Params{N: 256, K: 1, Min: min, Max: max, Seed: 17},
		// No background compactor: merges run when a test calls compactOnce.
		Segments: SegmentParams{Interval: -1},
	}
}

func openEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// runQuery and runQueryByID run a search nothing cancels and return its results.
func runQuery(e *Engine, q object.Object, opt QueryOptions) ([]Result, error) {
	ans, err := e.Search(context.Background(), q, opt)
	return ans.Results, err
}

func runQueryByID(e *Engine, id object.ID, opt QueryOptions) ([]Result, error) {
	ans, err := e.SearchByID(context.Background(), id, opt)
	return ans.Results, err
}

// clusterObject builds a multi-segment object around a per-cluster base
// point with additive noise: objects sharing (cluster, d, rng stream) are
// mutually similar.
func clusterObject(key string, cluster int, d, nseg int, noise float64, rng *rand.Rand) object.Object {
	base := make([]float32, d)
	crng := rand.New(rand.NewSource(int64(cluster)*7919 + 13))
	for i := range base {
		base[i] = crng.Float32()
	}
	weights := make([]float32, nseg)
	vecs := make([][]float32, nseg)
	for s := 0; s < nseg; s++ {
		weights[s] = 1 + rng.Float32()
		v := make([]float32, d)
		for i := range v {
			x := float64(base[i]) + float64(s)*0.07 + rng.NormFloat64()*noise
			v[i] = float32(math.Max(0, math.Min(1, x)))
		}
		vecs[s] = v
	}
	o, err := object.New(key, weights, vecs)
	if err != nil {
		panic(err)
	}
	return o
}

// ingestClusters loads nClusters×perCluster objects; returns IDs grouped by
// cluster.
func ingestClusters(t testing.TB, e *Engine, nClusters, perCluster, d, nseg int) [][]object.ID {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ids := make([][]object.ID, nClusters)
	for c := 0; c < nClusters; c++ {
		for m := 0; m < perCluster; m++ {
			o := clusterObject(fmt.Sprintf("c%02d-m%02d", c, m), c, d, nseg, 0.01, rng)
			id, err := e.Ingest(o, attr.Attrs{"cluster": fmt.Sprintf("c%d", c)})
			if err != nil {
				t.Fatal(err)
			}
			ids[c] = append(ids[c], id)
		}
	}
	return ids
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open without dir succeeded")
	}
}

func TestOpenBadSketchParams(t *testing.T) {
	if _, err := Open(Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("Open with zero sketch params succeeded")
	}
}

func TestIngestValidation(t *testing.T) {
	e := openEngine(t, testConfig(t.TempDir(), 4))
	var empty object.Object
	if _, err := e.Ingest(empty, nil); err == nil {
		t.Fatal("empty object ingested")
	}
	wrongDim := object.Single("x", []float32{1, 2})
	if _, err := e.Ingest(wrongDim, nil); err == nil {
		t.Fatal("wrong-dimension object ingested")
	}
}

func TestQueryValidation(t *testing.T) {
	e := openEngine(t, testConfig(t.TempDir(), 4))
	if _, err := runQuery(e, object.Object{}, QueryOptions{}); err == nil {
		t.Fatal("invalid query accepted")
	}
	if _, err := runQuery(e, object.Single("q", []float32{0, 0}), QueryOptions{}); err == nil {
		t.Fatal("wrong-dimension query accepted")
	}
	good := object.Single("q", []float32{0, 0, 0, 0})
	if _, err := runQuery(e, good, QueryOptions{Mode: Mode(99)}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestAllModesFindCluster: every search mode must retrieve the query's own
// cluster ahead of the others.
func TestAllModesFindCluster(t *testing.T) {
	const d, nseg = 8, 3
	e := openEngine(t, testConfig(t.TempDir(), d))
	ids := ingestClusters(t, e, 10, 5, d, nseg)

	rng := rand.New(rand.NewSource(2))
	query := clusterObject("query", 3, d, nseg, 0.01, rng)

	for _, mode := range []Mode{BruteForceOriginal, BruteForceSketch, Filtering} {
		results, err := runQuery(e, query, QueryOptions{Mode: mode, K: 5})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(results) != 5 {
			t.Fatalf("%v: %d results", mode, len(results))
		}
		want := map[object.ID]bool{}
		for _, id := range ids[3] {
			want[id] = true
		}
		hits := 0
		for _, r := range results {
			if want[r.ID] {
				hits++
			}
		}
		if hits < 4 {
			t.Errorf("%v: only %d/5 results from the query's cluster: %+v", mode, hits, results)
		}
		// Distances must be ascending.
		for i := 1; i < len(results); i++ {
			if results[i].Distance < results[i-1].Distance {
				t.Errorf("%v: results not sorted", mode)
			}
		}
	}
}

func TestQueryByID(t *testing.T) {
	const d, nseg = 8, 3
	e := openEngine(t, testConfig(t.TempDir(), d))
	ids := ingestClusters(t, e, 5, 4, d, nseg)
	results, err := runQueryByID(e, ids[2][0], QueryOptions{Mode: BruteForceOriginal, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ID != ids[2][0] || results[0].Distance > 1e-9 {
		t.Fatalf("self not ranked first: %+v", results[0])
	}
	if _, err := runQueryByID(e, 9999, QueryOptions{}); err == nil {
		t.Fatal("missing id accepted")
	}
}

func TestResultKeysPopulated(t *testing.T) {
	const d = 6
	e := openEngine(t, testConfig(t.TempDir(), d))
	ingestClusters(t, e, 3, 3, d, 2)
	q := clusterObject("q", 1, d, 2, 0.01, rand.New(rand.NewSource(5)))
	for _, mode := range []Mode{BruteForceOriginal, BruteForceSketch, Filtering} {
		results, err := runQuery(e, q, QueryOptions{Mode: mode, K: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Key == "" {
				t.Errorf("%v: empty key in result %+v", mode, r)
			}
		}
	}
}

func TestRestrictToAttributeMatches(t *testing.T) {
	const d = 6
	e := openEngine(t, testConfig(t.TempDir(), d))
	ids := ingestClusters(t, e, 4, 4, d, 2)

	// Restrict to cluster 0's objects via the attribute engine, then query
	// with a cluster-1 object: all results must still come from cluster 0.
	matched := e.Attrs().Search(attr.Query{Equal: map[string]string{"cluster": "c0"}})
	restrict := map[object.ID]bool{}
	for _, id := range matched {
		restrict[id] = true
	}
	if len(restrict) != 4 {
		t.Fatalf("attribute search found %d, want 4", len(restrict))
	}
	q := clusterObject("q", 1, d, 2, 0.01, rand.New(rand.NewSource(6)))
	for _, mode := range []Mode{BruteForceOriginal, BruteForceSketch, Filtering} {
		results, err := runQuery(e, q, QueryOptions{Mode: mode, K: 10, Restrict: restrict})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) == 0 || len(results) > 4 {
			t.Fatalf("%v: %d results under restriction", mode, len(results))
		}
		for _, r := range results {
			if !restrict[r.ID] {
				t.Errorf("%v: result %d outside restriction", mode, r.ID)
			}
		}
	}
	_ = ids
}

// TestFilteringAgreesWithBruteForce: on a clustered dataset the filtered
// top-k must essentially match the brute-force top-k.
func TestFilteringAgreesWithBruteForce(t *testing.T) {
	const d, nseg = 10, 4
	e := openEngine(t, testConfig(t.TempDir(), d))
	ingestClusters(t, e, 12, 6, d, nseg)
	rng := rand.New(rand.NewSource(7))
	agree := 0
	total := 0
	for trial := 0; trial < 8; trial++ {
		q := clusterObject("q", trial, d, nseg, 0.01, rng)
		bf, err := runQuery(e, q, QueryOptions{Mode: BruteForceOriginal, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		fl, err := runQuery(e, q, QueryOptions{Mode: Filtering, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		bfSet := map[object.ID]bool{}
		for _, r := range bf {
			bfSet[r.ID] = true
		}
		for _, r := range fl {
			total++
			if bfSet[r.ID] {
				agree++
			}
		}
	}
	if float64(agree)/float64(total) < 0.85 {
		t.Errorf("filtering agreement with brute force: %d/%d", agree, total)
	}
}

// TestExactDistanceFiltering: the §4.1.1 alternative path — filtering by
// the segment distance function directly — must agree with brute force.
func TestExactDistanceFiltering(t *testing.T) {
	const d, nseg = 10, 4
	e := openEngine(t, testConfig(t.TempDir(), d))
	ingestClusters(t, e, 8, 5, d, nseg)
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 5; trial++ {
		q := clusterObject("q", trial, d, nseg, 0.01, rng)
		bf, err := runQuery(e, q, QueryOptions{Mode: BruteForceOriginal, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := runQuery(e, q, QueryOptions{
			Mode:   Filtering,
			K:      5,
			Filter: FilterParams{ExactDistance: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		bfSet := map[object.ID]bool{}
		for _, r := range bf {
			bfSet[r.ID] = true
		}
		hits := 0
		for _, r := range ex {
			if bfSet[r.ID] {
				hits++
			}
		}
		if hits < 4 {
			t.Errorf("trial %d: exact filter agreed on %d/5", trial, hits)
		}
	}
	// The k-nearest cut bounds the candidates: each of r query segments
	// contributes at most k objects, however many results are asked for.
	q := clusterObject("q", 0, d, nseg, 0.01, rng)
	results, err := runQuery(e, q, QueryOptions{
		Mode:   Filtering,
		K:      50,
		Filter: FilterParams{ExactDistance: true, QuerySegments: 2, NearestPerSegment: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 || len(results) > 2*3 {
		t.Errorf("exact filter with r=2, k=3 returned %d results", len(results))
	}
}

func TestExactFilteringUnavailableSketchOnly(t *testing.T) {
	cfg := testConfig(t.TempDir(), 4)
	cfg.SketchOnly = true
	e := openEngine(t, cfg)
	e.Ingest(object.Single("a", []float32{0, 0, 0, 0}), nil)
	_, err := runQuery(e, object.Single("q", []float32{0, 0, 0, 0}), QueryOptions{
		Mode:   Filtering,
		Filter: FilterParams{ExactDistance: true},
	})
	if err == nil {
		t.Fatal("exact filtering allowed in sketch-only mode")
	}
}

func TestSketchOnlyMode(t *testing.T) {
	const d = 6
	cfg := testConfig(t.TempDir(), d)
	cfg.SketchOnly = true
	e := openEngine(t, cfg)
	ids := ingestClusters(t, e, 4, 4, d, 2)

	q := clusterObject("q", 2, d, 2, 0.01, rand.New(rand.NewSource(8)))
	if _, err := runQuery(e, q, QueryOptions{Mode: BruteForceOriginal}); err == nil {
		t.Fatal("BruteForceOriginal allowed in sketch-only mode")
	}
	for _, mode := range []Mode{BruteForceSketch, Filtering} {
		results, err := runQuery(e, q, QueryOptions{Mode: mode, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		want := map[object.ID]bool{}
		for _, id := range ids[2] {
			want[id] = true
		}
		for _, r := range results {
			if want[r.ID] {
				hits++
			}
		}
		if hits < 3 {
			t.Errorf("%v sketch-only: %d/4 cluster hits", mode, hits)
		}
	}
	// QueryByID must work from stored sketches alone.
	results, err := runQueryByID(e, ids[1][0], QueryOptions{Mode: Filtering, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ID != ids[1][0] {
		t.Fatalf("self not first: %+v", results)
	}
}

// TestLongKeyRefused: the feature-vector record stores its key's length in
// 16 bits, so a longer key is refused at ingest instead of corrupting the
// store, and the engine still reopens with every object it accepted.
func TestLongKeyRefused(t *testing.T) {
	const d = 4
	cfg := testConfig(t.TempDir(), d)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vec := []float32{0.1, 0.2, 0.3, 0.4}
	if _, err := e.Ingest(object.Single(strings.Repeat("k", 70000), vec), nil); err == nil {
		t.Fatal("a 70 000-byte key was ingested")
	}
	for _, key := range []string{"short", strings.Repeat("m", math.MaxUint16)} {
		if _, err := e.Ingest(object.Single(key, vec), nil); err != nil {
			t.Fatalf("%d-byte key: %v", len(key), err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openEngine(t, cfg)
	if e2.Count() != 2 {
		t.Fatalf("reopened engine counts %d objects, want 2", e2.Count())
	}
	if err := e2.checkSegInvariants(e2.cur.Load()); err != nil {
		t.Fatal(err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	const d = 6
	dir := t.TempDir()
	cfg := testConfig(dir, d)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	o := clusterObject("persist-me", 1, d, 3, 0.01, rng)
	id, err := e.Ingest(o, attr.Attrs{"note": "hello world"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openEngine(t, cfg)
	if e2.Count() != 1 {
		t.Fatalf("Count after reopen = %d", e2.Count())
	}
	// The restored builder must produce identical sketches: querying with
	// the exact ingested object must return distance 0 in sketch mode.
	results, err := runQuery(e2, o, QueryOptions{Mode: BruteForceSketch, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ID != id || results[0].Distance > 1e-9 {
		t.Fatalf("reopened engine: %+v", results)
	}
	// Attributes survived too.
	if got := e2.Attrs().Search(attr.Query{Keywords: []string{"hello"}}); len(got) != 1 || got[0] != id {
		t.Fatalf("attribute search after reopen: %v", got)
	}
}

func TestKLargerThanDataset(t *testing.T) {
	const d = 4
	e := openEngine(t, testConfig(t.TempDir(), d))
	ingestClusters(t, e, 2, 2, d, 2)
	q := clusterObject("q", 0, d, 2, 0.01, rand.New(rand.NewSource(4)))
	results, err := runQuery(e, q, QueryOptions{Mode: BruteForceOriginal, K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results, want all 4", len(results))
	}
}

func TestEmptyEngineQuery(t *testing.T) {
	const d = 4
	e := openEngine(t, testConfig(t.TempDir(), d))
	q := object.Single("q", make([]float32, d))
	for _, mode := range []Mode{BruteForceOriginal, BruteForceSketch, Filtering} {
		results, err := runQuery(e, q, QueryOptions{Mode: mode, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 0 {
			t.Fatalf("%v: results from empty engine", mode)
		}
	}
}

func TestConcurrentQueriesDuringIngest(t *testing.T) {
	const d = 6
	e := openEngine(t, testConfig(t.TempDir(), d))
	ingestClusters(t, e, 4, 4, d, 2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := clusterObject("q", g, d, 2, 0.01, rng)
				if _, err := runQuery(e, q, QueryOptions{Mode: Filtering, K: 3}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(50))
	for i := 0; i < 30; i++ {
		o := clusterObject(fmt.Sprintf("new-%d", i), i%4, d, 2, 0.01, rng)
		if _, err := e.Ingest(o, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestModeString(t *testing.T) {
	if Filtering.String() != "Filtering" || BruteForceOriginal.String() != "BruteForceOriginal" ||
		BruteForceSketch.String() != "BruteForceSketch" {
		t.Fatal("mode names wrong")
	}
	if Mode(42).String() == "" {
		t.Fatal("unknown mode has empty name")
	}
}

func TestFilterParamsDefaults(t *testing.T) {
	p := FilterParams{}.withDefaults(10, 7)
	if p.QuerySegments != 4 || p.NearestPerSegment < 32 || p.MaxHammingFrac != 0.49 || p.WeightTighten != 0.2 {
		t.Fatalf("defaults: %+v", p)
	}
	p = FilterParams{QuerySegments: 99}.withDefaults(3, 1)
	if p.QuerySegments != 3 {
		t.Fatalf("QuerySegments not clamped: %+v", p)
	}
}

func TestTopK(t *testing.T) {
	top := newTopK(3)
	for _, d := range []float64{5, 1, 4, 2, 8, 0.5} {
		top.push(Result{ID: object.ID(d * 10), Distance: d})
	}
	out := top.sorted()
	if len(out) != 3 {
		t.Fatalf("kept %d", len(out))
	}
	want := []float64{0.5, 1, 2}
	for i, r := range out {
		if r.Distance != want[i] {
			t.Fatalf("sorted = %+v", out)
		}
	}
}

func TestSegHeap(t *testing.T) {
	h := newSegHeap(3, 64)
	for i, ham := range []int{50, 10, 40, 5, 30, 20} {
		if ham < h.worst() {
			h.push(i, ham)
		}
	}
	items := h.items()
	if len(items) != 3 {
		t.Fatalf("kept %d", len(items))
	}
	// The three nearest were entries 1 (10), 3 (5), 5 (20).
	want := map[int]bool{1: true, 3: true, 5: true}
	for _, key := range items {
		if e := int(uint32(key)); !want[e] {
			t.Fatalf("items = %v", items)
		}
	}
}
