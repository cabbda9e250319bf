package experiments

import (
	"fmt"
	"os"
	"time"

	"ferret/internal/attr"
	"ferret/internal/audiofeat"
	"ferret/internal/core"
	"ferret/internal/evaltool"
	"ferret/internal/imagefeat"
	"ferret/internal/kvstore"
	"ferret/internal/object"
	"ferret/internal/shape"
	"ferret/internal/sketch"
	"ferret/internal/synth"
)

// tempEngine opens an engine in a throwaway directory with relaxed
// durability (experiments rebuild their data; per-commit fsync would
// dominate ingest time).
func tempEngine(cfg core.Config) (*core.Engine, func(), error) {
	dir, err := os.MkdirTemp("", "ferret-exp-*")
	if err != nil {
		return nil, nil, err
	}
	cfg.Dir = dir
	cfg.Store = kvstore.Options{Sync: kvstore.SyncPeriodic, SyncInterval: time.Minute}
	e, err := core.Open(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	cleanup := func() {
		e.Close()
		os.RemoveAll(dir)
	}
	return e, cleanup, nil
}

// dataType bundles the per-data-type engine parameters used across the
// experiments.
type dataType struct {
	name       string
	dim        int
	sketchBits int
	sketchCfg  func(nBits int) sketch.Params
	rankThresh float64
}

func imageType() dataType {
	min, max := imagefeat.FeatureBounds()
	return dataType{
		name: "VARY Image", dim: imagefeat.FeatureDim, sketchBits: 96,
		sketchCfg: func(n int) sketch.Params {
			return sketch.Params{N: n, K: 1, Min: min, Max: max, Seed: 201}
		},
		rankThresh: 2.0,
	}
}

func audioType() dataType {
	min, max := audiofeat.DefaultFeatureBounds()
	return dataType{
		name: "TIMIT Audio", dim: audiofeat.FeatureDim, sketchBits: 600,
		sketchCfg: func(n int) sketch.Params {
			return sketch.Params{N: n, K: 1, Min: min, Max: max, Seed: 202}
		},
	}
}

// mixedAudioType matches the feature-level speed dataset's value range
// ([-4, 4] per dimension) rather than the real MFCC pipeline's.
func mixedAudioType() dataType {
	min := make([]float32, audiofeat.FeatureDim)
	max := make([]float32, audiofeat.FeatureDim)
	for i := range min {
		min[i], max[i] = -4, 4
	}
	return dataType{
		name: "TIMIT Audio", dim: audiofeat.FeatureDim, sketchBits: 600,
		sketchCfg: func(n int) sketch.Params {
			return sketch.Params{N: n, K: 1, Min: min, Max: max, Seed: 202}
		},
	}
}

func shapeType() dataType {
	min, max := shape.FeatureBounds()
	return dataType{
		name: "PSB 3D Shape", dim: shape.DescriptorDim, sketchBits: 800,
		sketchCfg: func(n int) sketch.Params {
			return sketch.Params{N: n, K: 1, Min: min, Max: max, Seed: 203}
		},
	}
}

// mixedShapeType matches the feature-level speed dataset's [0, 2] range.
func mixedShapeType() dataType {
	min := make([]float32, shape.DescriptorDim)
	max := make([]float32, shape.DescriptorDim)
	for i := range max {
		max[i] = 2
	}
	return dataType{
		name: "Mixed 3D shape", dim: shape.DescriptorDim, sketchBits: 800,
		sketchCfg: func(n int) sketch.Params {
			return sketch.Params{N: n, K: 1, Min: min, Max: max, Seed: 203}
		},
	}
}

// buildEngine opens a temp engine for a data type with the given sketch
// size and ingests the objects.
func buildEngine(dt dataType, nBits int, objs []object.Object, attrs []attr.Attrs) (*core.Engine, func(), error) {
	cfg := core.Config{Sketch: dt.sketchCfg(nBits), RankThreshold: dt.rankThresh}
	e, cleanup, err := tempEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	for i := range objs {
		var a attr.Attrs
		if attrs != nil {
			a = attrs[i]
		}
		if _, err := e.Ingest(objs[i], a); err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("experiments: ingest %s: %w", objs[i].Key, err)
		}
	}
	return e, cleanup, nil
}

// quality runs the evaluation tool in the given mode and returns the
// report. It is a variable so TestQualityPin can also read the ranked
// answers of each engine it scores.
var quality = func(e *core.Engine, sets [][]string, mode core.Mode) (evaltool.Report, error) {
	r := &evaltool.Runner{Engine: e, Options: core.QueryOptions{Mode: mode}}
	return r.Run(sets)
}

// speedFilter pins the filtering parameters for the speed experiments to
// the paper's regime: a bounded candidate set per query segment,
// independent of dataset size (the tunable "number of filtered candidates
// to get for each query segment", §5).
var speedFilter = core.FilterParams{QuerySegments: 3, NearestPerSegment: 50}

// avgQuerySeconds measures the mean wall-clock time of running the query
// objects against the engine in the given mode.
func avgQuerySeconds(e *core.Engine, queries []object.Object, mode core.Mode, k int) (float64, error) {
	if len(queries) == 0 {
		return 0, fmt.Errorf("experiments: no query objects")
	}
	sum, err := measureQueries(e, queries, mode, k)
	if err != nil {
		return 0, err
	}
	return sum.MeanSec, nil
}

// featureBits is the per-feature-vector metadata size in bits (32-bit
// floats, as in the paper's Table 1).
func featureBits(dim int) int { return dim * 32 }

// benchSets converts a synth benchmark's similarity sets for the
// evaluation tool (identity — kept for clarity at call sites).
func benchSets(b *synth.Benchmark) [][]string { return b.Sets }
