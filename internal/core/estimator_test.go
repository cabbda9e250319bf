package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ferret/internal/emd"
	"ferret/internal/metastore"
	"ferret/internal/object"
	"ferret/internal/sketch"
)

// TestSketchDistancePreservesEMDOrdering is the system's end-to-end
// estimator invariant: rankings by the sketch-estimated object distance
// must correlate strongly with rankings by the exact EMD — that is the
// entire premise of BruteForceSketch and of filtering (paper §2, §4.1.1).
func TestSketchDistancePreservesEMDOrdering(t *testing.T) {
	const d = 12
	cfg := testConfig(t.TempDir(), d)
	cfg.Sketch.N = 512
	e := openEngine(t, cfg)

	rng := rand.New(rand.NewSource(61))
	randObj := func(key string) object.Object {
		k := rng.Intn(4) + 1
		w := make([]float32, k)
		vs := make([][]float32, k)
		for i := 0; i < k; i++ {
			w[i] = rng.Float32() + 0.05
			v := make([]float32, d)
			for j := range v {
				v[j] = rng.Float32()
			}
			vs[i] = v
		}
		o, err := object.New(key, w, vs)
		if err != nil {
			panic(err)
		}
		return o
	}

	query := randObj("query")
	qset := e.buildSketchSet(query)

	// Over many random objects, count ordering inversions between the
	// exact EMD and the sketch estimate.
	const n = 60
	type pair struct{ exact, est float64 }
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		o := randObj("x")
		exact, err := emd.Distance(query, o, emd.Options{})
		if err != nil {
			t.Fatal(err)
		}
		oset := &metastore.SketchSet{}
		for _, seg := range o.Segments {
			oset.Weights = append(oset.Weights, seg.Weight)
			oset.Sketches = append(oset.Sketches, e.builder.Build(seg.Vec))
		}
		pairs[i] = pair{exact: exact, est: e.sketchObjectDistanceSet(qset, oset)}
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			de := pairs[i].exact - pairs[j].exact
			ds := pairs[i].est - pairs[j].est
			if de*ds > 0 {
				concordant++
			} else if de*ds < 0 {
				discordant++
			}
		}
	}
	tau := float64(concordant-discordant) / float64(concordant+discordant)
	if tau < 0.6 {
		t.Fatalf("Kendall tau between exact EMD and sketch estimate = %.3f", tau)
	}
}

// sketchObjectDistanceSet is sketchObjectDistanceAt over two free-standing
// sketch sets (no arena entry).
func (e *Engine) sketchObjectDistanceSet(qset, oset *metastore.SketchSet) float64 {
	d, err := emd.Transport(qset.Weights, oset.Weights, func(i int, row []float64) {
		for j := range row {
			row[j] = e.estimateSketches(qset.Sketches[i], oset.Sketches[j])
		}
	})
	if err != nil {
		return infinity
	}
	return d
}

// estimateSketches is estimateAt for two free-standing sketches.
func (e *Engine) estimateSketches(a, b sketch.Sketch) float64 {
	return e.est[sketch.Hamming(a, b)]
}

// bug guard: sketchObjectDistance must use the query's own sketches, not
// the entry's.
func TestSketchObjectDistanceSelfZero(t *testing.T) {
	const d = 8
	e := openEngine(t, testConfig(t.TempDir(), d))
	rng := rand.New(rand.NewSource(62))
	o := clusterObject("o", 1, d, 3, 0.01, rng)
	set := e.buildSketchSet(o)
	if got := e.sketchObjectDistanceSet(set, set); got > 1e-9 {
		t.Fatalf("self distance %g", got)
	}
}

func BenchmarkFilterQuery10k(b *testing.B) {
	const d = 14
	min := make([]float32, d)
	max := make([]float32, d)
	for i := range max {
		max[i] = 1
	}
	e, err := Open(Config{
		Dir:    b.TempDir(),
		Sketch: sketch.Params{N: 96, K: 1, Min: min, Max: max, Seed: 70},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 2000; i++ {
		o := clusterObject(fmt.Sprintf("k%04d", i), i%50, d, 8, 0.02, rng)
		if _, err := e.Ingest(o, nil); err != nil {
			b.Fatal(err)
		}
	}
	q := clusterObject("q", 7, d, 8, 0.02, rng)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runQuery(e, q, QueryOptions{Mode: Filtering, K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}
