// Package synth generates the synthetic benchmark datasets that stand in
// for the paper's evaluation data (§6.1), which is proprietary or
// unavailable offline:
//
//   - VARY image benchmark   → procedurally rendered region images with
//     scene-template similarity sets (see images.go)
//   - TIMIT audio benchmark  → synthesized formant-like "sentences" spoken
//     by perturbed synthetic speakers (see audio.go)
//   - PSB shape benchmark    → parametric mesh families with class noise
//     and random rotations (see shapes.go)
//   - Mixed image/shape/audio speed datasets → feature-level object streams
//     from cluster mixture models (this file)
//   - gene expression matrices with cluster ground truth (see genes.go)
//
// Every generator is deterministic given its seed. DESIGN.md documents why
// each substitution preserves the behaviour the paper's experiments
// exercise.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"ferret/internal/attr"
	"ferret/internal/object"
)

// Benchmark is a generated dataset with ground truth: the objects, optional
// per-object attributes (parallel to Objects), and the similarity sets
// (each a list of object keys that are mutually similar — the paper's "gold
// standard").
type Benchmark struct {
	Objects []object.Object
	Attrs   []attr.Attrs
	Sets    [][]string
	// Baseline optionally holds comparison-system objects for the same
	// underlying data (same keys, different features) — e.g. global image
	// features for the SIMPLIcity-like baseline of Table 1.
	Baseline []object.Object
}

// clusterModel draws feature vectors around per-cluster base points: the
// shared machinery of the feature-level speed datasets.
type clusterModel struct {
	dim      int
	clusters int
	noise    float64
	lo, hi   float32
	rng      *rand.Rand
	bases    [][]float32 // per-cluster base points, drawn on first use
}

// base returns the cluster's base point, drawn once from a source seeded by
// the cluster number alone. Callers must not modify it.
func (c *clusterModel) base(cluster int) []float32 {
	if c.bases == nil {
		c.bases = make([][]float32, c.clusters)
	}
	if b := c.bases[cluster]; b != nil {
		return b
	}
	crng := rand.New(rand.NewSource(int64(cluster)*6364136223846793005 + 1442695040888963407))
	b := make([]float32, c.dim)
	for i := range b {
		b[i] = c.lo + crng.Float32()*(c.hi-c.lo)
	}
	c.bases[cluster] = b
	return b
}

func (c *clusterModel) sample(cluster int) []float32 {
	b := c.base(cluster)
	v := make([]float32, len(b))
	for i := range v {
		x := float64(b[i]) + c.rng.NormFloat64()*c.noise
		v[i] = float32(math.Max(float64(c.lo), math.Min(float64(c.hi), x)))
	}
	return v
}

// MixedImageObjects streams n feature-level image objects matching the
// statistics the paper reports for its Mixed image dataset: ~10.8 segments
// per object on average, 14-d feature vectors in [0, 1]. Objects are drawn
// from a mixture of clusters so that filtering has structure to exploit.
func MixedImageObjects(n int, seed int64) []object.Object {
	rng := rand.New(rand.NewSource(seed))
	model := &clusterModel{dim: 14, clusters: 200, noise: 0.05, lo: 0, hi: 1, rng: rng}
	out := make([]object.Object, n)
	for i := 0; i < n; i++ {
		// Segment count with mean ≈ 10.8 (paper Table 2).
		nseg := 6 + rng.Intn(10)
		cluster := rng.Intn(model.clusters)
		weights := make([]float32, nseg)
		vecs := make([][]float32, nseg)
		for s := 0; s < nseg; s++ {
			weights[s] = rng.Float32() + 0.1
			vecs[s] = model.sample((cluster + s) % model.clusters)
		}
		o, err := object.New(fmt.Sprintf("mixed-img-%07d", i), weights, vecs)
		if err != nil {
			panic(err)
		}
		out[i] = o
	}
	return out
}

// MixedShapeObjects streams n single-segment 544-d shape-descriptor objects
// (the paper's Mixed 3D shape dataset has one feature vector per object).
func MixedShapeObjects(n int, seed int64) []object.Object {
	rng := rand.New(rand.NewSource(seed))
	model := &clusterModel{dim: 544, clusters: 100, noise: 0.03, lo: 0, hi: 2, rng: rng}
	out := make([]object.Object, n)
	for i := 0; i < n; i++ {
		out[i] = object.Single(fmt.Sprintf("mixed-shape-%06d", i), model.sample(rng.Intn(model.clusters)))
	}
	return out
}

// MixedAudioObjects streams n feature-level audio objects with ~8.6
// segments per object (paper Table 2) and 192-d vectors.
func MixedAudioObjects(n int, seed int64) []object.Object {
	rng := rand.New(rand.NewSource(seed))
	model := &clusterModel{dim: 192, clusters: 150, noise: 0.2, lo: -4, hi: 4, rng: rng}
	out := make([]object.Object, n)
	for i := 0; i < n; i++ {
		nseg := 5 + rng.Intn(8)
		weights := make([]float32, nseg)
		vecs := make([][]float32, nseg)
		for s := 0; s < nseg; s++ {
			weights[s] = rng.Float32() + 0.1
			vecs[s] = model.sample(rng.Intn(model.clusters))
		}
		o, err := object.New(fmt.Sprintf("mixed-audio-%06d", i), weights, vecs)
		if err != nil {
			panic(err)
		}
		out[i] = o
	}
	return out
}

// AvgSegments reports the mean segment count of a dataset (the "Avg. #
// Segments/Object" column of Table 2).
func AvgSegments(objs []object.Object) float64 {
	if len(objs) == 0 {
		return 0
	}
	total := 0
	for i := range objs {
		total += len(objs[i].Segments)
	}
	return float64(total) / float64(len(objs))
}
