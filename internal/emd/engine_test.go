package emd_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"ferret/internal/core"
	"ferret/internal/emd"
	"ferret/internal/object"
	"ferret/internal/sketch"
	"ferret/internal/synth"
)

// imageEngine opens an engine configured like the benchmark's image_engine
// workload over 2000 MixedImageObjects in five storage segments, at
// GOMAXPROCS procs: the engine starts procs−1 query helpers. dist nil
// means the built-in EMD with both pruning tiers; a plug-in distance ranks
// every candidate in full.
func imageEngine(t *testing.T, procs int, dist func(a, b object.Object) float64) *core.Engine {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const n = 2000
	min, max := make([]float32, 14), make([]float32, 14)
	for i := range max {
		max[i] = 1
	}
	e, err := core.Open(core.Config{
		Dir:            t.TempDir(),
		Sketch:         sketch.Params{N: 96, K: 1, Min: min, Max: max, Seed: 201},
		RankThreshold:  2.0,
		ObjectDistance: dist,
		HIndex:         core.HIndexParams{Enable: true},
		Segments:       core.SegmentParams{SealEntries: n/5 + 1, Interval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for _, o := range synth.MixedImageObjects(n, 3) {
		if _, err := e.Ingest(o, nil); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// sameRanking checks two top-K answers agree: distances position by position
// within 1e-9, and every result strictly inside the K-th distance present in
// the other answer (results tied with the K-th may differ, and tied
// neighbours may swap).
func sameRanking(t *testing.T, what string, got, want []core.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, oracle %d", what, len(got), len(want))
	}
	const tol = 1e-9
	kth := want[len(want)-1].Distance
	pos := map[object.ID]int{}
	for i, r := range want {
		pos[r.ID] = i
	}
	for i, r := range got {
		if math.Abs(r.Distance-want[i].Distance) > tol {
			t.Fatalf("%s: rank %d distance %.15g, oracle %.15g", what, i, r.Distance, want[i].Distance)
		}
		if r.Distance >= kth-tol {
			continue
		}
		j, ok := pos[r.ID]
		if !ok || math.Abs(want[j].Distance-r.Distance) > tol {
			t.Fatalf("%s: rank %d id %d (distance %.15g) not in the oracle's answer at that distance", what, i, r.ID, r.Distance)
		}
	}
}

// TestEngineRankingMatchesOracle: an engine on the new solver returns the old
// solver's top 20, by brute force and through the filter with both pruning
// tiers on, and prunes, abandons and evaluates exactly as many candidates as
// the parent commit did on this corpus and these queries (the counts are the
// parent's, measured there with this test: the pruning logic did not move).
// The Filtering answers and a BruteForceSketch pass are also pinned bit for
// bit: an FNV-64a digest over every (ID, Float64bits(Distance)) in order, so
// a kernel change that moves any distance by one ulp fails here.
//
// The engines under count are opened at GOMAXPROCS 1, with no query helper,
// so every rank walk is the caller's alone. A second pass repeats the
// Filtering queries on an engine with one helper, whose walks fan out: its
// digests and counts must be the same. Each outcome is counted under its
// own position's bound, so the split between solved and abandoned holds
// too, though a helper may have solved a candidate the counts call
// abandoned.
func TestEngineRankingMatchesOracle(t *testing.T) {
	opts := emd.Options{Threshold: 2.0}
	builtin := imageEngine(t, 1, nil)
	oracle := imageEngine(t, 1, emd.OracleObjectDistance(opts))
	queries := synth.MixedImageObjects(16, 1001)
	for i := range queries {
		queries[i].Key = "q-" + queries[i].Key
	}
	ctx := context.Background()
	strict := 0
	compare := func(mode core.Mode) {
		for _, q := range queries {
			opt := core.QueryOptions{K: 20, Mode: mode}
			got, err := builtin.Search(ctx, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Search(ctx, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameRanking(t, q.Key, got.Results, want.Results)
			for _, r := range want.Results {
				if r.Distance < want.Results[len(want.Results)-1].Distance-1e-9 {
					strict++
				}
			}
		}
	}
	digest := func(e *core.Engine, mode core.Mode) uint64 {
		h := fnv.New64a()
		var buf [16]byte
		for _, q := range queries {
			ans, err := e.Search(ctx, q, core.QueryOptions{K: 20, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range ans.Results {
				binary.LittleEndian.PutUint64(buf[:8], uint64(r.ID))
				binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.Distance))
				h.Write(buf[:])
			}
		}
		return h.Sum64()
	}
	compare(core.Filtering)
	reg := builtin.Telemetry()
	counts := map[string]float64{
		"ferret_rank_distance_evals_total": 833,
		"ferret_rank_emd_abandoned_total":  660,
		"ferret_rank_emd_pruned_total":     6117,
	}
	for name, want := range counts {
		if got := reg.Value(name); got != want {
			t.Errorf("%s = %v over the 16 Filtering queries, parent commit %v", name, got, want)
		}
	}
	digests := map[core.Mode]uint64{
		core.Filtering:        0xe9f53453e2276304,
		core.BruteForceSketch: 0x78851ae4f6413e88,
	}
	for mode, want := range digests {
		if got := digest(builtin, mode); got != want {
			t.Errorf("mode %v: answer digest %#x, parent commit %#x", mode, got, want)
		}
	}
	compare(core.BruteForceOriginal)
	if strict < 100 {
		t.Fatalf("only %d results strictly inside their K-th distance: the comparison is all ties", strict)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	fan := imageEngine(t, 2, nil)
	for _, q := range queries {
		if _, err := fan.Search(ctx, q, core.QueryOptions{K: 20}); err != nil {
			t.Fatal(err)
		}
	}
	reg = fan.Telemetry()
	if got := reg.Value("ferret_rank_distance_evals_total") + reg.Value("ferret_rank_emd_abandoned_total"); got != 833+660 {
		t.Errorf("GOMAXPROCS 2: evaluated + abandoned = %v over the 16 Filtering queries, parent commit %d", got, 833+660)
	}
	for name, want := range counts {
		if got := reg.Value(name); got != want {
			t.Errorf("GOMAXPROCS 2: %s = %v over the 16 Filtering queries, parent commit %v", name, got, want)
		}
	}
	for mode, want := range digests {
		if got := digest(fan, mode); got != want {
			t.Errorf("GOMAXPROCS 2, mode %v: answer digest %#x, parent commit %#x", mode, got, want)
		}
	}
}
