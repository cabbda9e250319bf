package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"ferret/internal/kvstore"
	"ferret/internal/object"
	"ferret/internal/sketch"
	"ferret/internal/synth"
	"ferret/internal/telemetry/trace"
)

// pairBoundsEngine opens an indexed 800-bit engine over n 544-d shapes — three
// sealed segments and an unindexed tail — with forced traces only; every
// split-th object is folded with the next into one two-segment object
// (0: none). tune adjusts the configuration first.
func pairBoundsEngine(t *testing.T, n, split int, tune func(*Config)) (*Engine, []object.ID) {
	t.Helper()
	const dim = 544
	max := make([]float32, dim)
	for i := range max {
		max[i] = 2
	}
	cfg := Config{
		Dir:      t.TempDir(),
		Sketch:   sketch.Params{N: 800, K: 1, Min: make([]float32, dim), Max: max, Seed: 203},
		Store:    kvstore.Options{Sync: kvstore.SyncPeriodic, SyncInterval: time.Second},
		HIndex:   HIndexParams{Enable: true},
		Segments: SegmentParams{SealEntries: n * 2 / 7, Interval: -1},
		Trace:    trace.Params{SampleEvery: -1, SlowThreshold: -1},
	}
	if tune != nil {
		tune(&cfg)
	}
	e := openEngine(t, cfg)
	var ids []object.ID
	objs := synth.MixedShapeObjects(n, 301)
	for i := 0; i < len(objs); i++ {
		o := objs[i]
		if split > 0 && i%split == 0 && i+1 < len(objs) {
			var err error
			o, err = object.New(o.Key, []float32{0.5, 0.5}, [][]float32{o.Segments[0].Vec, objs[i+1].Segments[0].Vec})
			if err != nil {
				t.Fatal(err)
			}
			i++
		}
		id, err := e.Ingest(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return e, ids
}

// checkPairBounds runs the queries and by-ID queries through e. For each
// query object it filters into scratch and asks pairBounds for the bounds:
// fast says whether it must answer; when it does, its lbs must equal
// lowerBounds' element for element, bits included. Every query's answer and
// rank ledger must then be the same with the fast path forced off. It
// returns the bounds seen tied across distinct Hamming distances and the
// bounds checked.
func checkPairBounds(t *testing.T, label string, e *Engine, qs []object.Object, ids []object.ID, opt QueryOptions, fast bool) (ties, checked int) {
	t.Helper()
	defer func() { pairBoundsOff = false }()
	for _, q := range qs {
		v, sc := e.cur.Load(), getScratch()
		loadScratch(sc, q, e.buildSketchSet(q), opt)
		sc.hasQ = !e.cfg.SketchOnly
		e.filter(v, sc)
		lbs := e.pairBounds(v, sc)
		if (lbs != nil) != fast {
			t.Fatalf("%s %s: pairBounds answered %t, want %t", label, q.Key, lbs != nil, fast)
		}
		if lbs != nil {
			got, ham := slices.Clone(lbs), map[int]uint64{}
			for _, p := range sc.pairs[0].heap.items() {
				ham[int(uint32(p))] = p >> 32
			}
			want := e.lowerBounds(v, sc.cands, e.cfg.SqrtWeights, sc)
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d bounds, lowerBounds %d", label, q.Key, len(got), len(want))
			}
			for i, w := range want {
				if got[i].idx != w.idx || math.Float64bits(got[i].lb) != math.Float64bits(w.lb) {
					t.Fatalf("%s %s: bound %d is (%d, %v), lowerBounds (%d, %v)", label, q.Key, i, got[i].idx, got[i].lb, w.idx, w.lb)
				}
				if i > 0 && !(got[i].lb > got[i-1].lb) && ham[got[i].idx] != ham[got[i-1].idx] {
					ties++
				}
			}
			checked += len(got)
		}
		putScratch(sc)
	}
	queries := make([]func() (Answer, error), 0, len(qs)+len(ids))
	for _, q := range qs {
		queries = append(queries, func() (Answer, error) { return e.Search(context.Background(), q, opt) })
	}
	for _, id := range ids {
		queries = append(queries, func() (Answer, error) { return e.SearchByID(context.Background(), id, opt) })
	}
	for qi, query := range queries {
		var ans [2]Answer
		var ledger [2]map[string]int64
		for i, off := range []bool{false, true} {
			pairBoundsOff = off
			var err error
			if ans[i], err = query(); err != nil {
				t.Fatal(err)
			}
			ledger[i] = rankLedger(t, e, ans[i])
		}
		if fmt.Sprint(ans[0].Results) != fmt.Sprint(ans[1].Results) {
			t.Fatalf("%s query %d: answered %v, %v with the fast path off", label, qi, ans[0].Results, ans[1].Results)
		}
		for _, key := range []string{"evals", "pruned", "abandoned", "cands"} {
			if ledger[0][key] != ledger[1][key] {
				t.Fatalf("%s query %d: rank ledger %v, %v with the fast path off", label, qi, ledger[0], ledger[1])
			}
		}
	}
	return ties, checked
}

// TestPairBoundsMatchLowerBounds: a one-segment query over one-row entries
// takes its sketch lower bounds straight from the filter's (Hamming, entry)
// pairs (pairBounds), and they are lowerBounds' bounds in lowerBounds' order,
// so answers and pruned / evaluated / abandoned counts do not move. Covered at
// GOMAXPROCS 1 and 2: several sealed segments plus the unindexed tail, with
// and without a rank threshold (capped estimates tie across Hamming
// distances, which the check requires to happen), tombstones and a Restrict
// set, a sketch-only store, and a corpus with two-segment entries, which must
// take lowerBounds.
func TestPairBoundsMatchLowerBounds(t *testing.T) {
	const n = 1100
	qs := synth.MixedShapeObjects(n+12, 301)[n:]
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			opt := QueryOptions{K: 20, ForceTrace: true}

			e, ids := pairBoundsEngine(t, n, 0, nil)
			byID := []object.ID{ids[1], ids[n/2], ids[n-2]} // none deleted below
			_, checked := checkPairBounds(t, "uncapped", e, qs, byID, opt, true)
			if checked == 0 {
				t.Fatal("no bounds checked")
			}
			// A threshold at the median bound caps half of them.
			var lbs []float64
			for _, q := range qs {
				sc := getScratch()
				loadScratch(sc, q, e.buildSketchSet(q), opt)
				e.filter(e.cur.Load(), sc)
				for _, c := range e.pairBounds(e.cur.Load(), sc) {
					lbs = append(lbs, c.lb)
				}
				putScratch(sc)
			}
			slices.Sort(lbs)
			threshold := lbs[len(lbs)/2]

			for i := 0; i < n; i += 7 {
				if err := e.Delete(ids[i]); err != nil {
					t.Fatal(err)
				}
			}
			restrict := map[object.ID]bool{}
			for i := 0; i < n; i += 3 {
				restrict[ids[i]], restrict[ids[i+1]] = true, true
			}
			checkPairBounds(t, "tombstones", e, qs, byID, opt, true)
			checkPairBounds(t, "restrict", e, qs, byID, QueryOptions{K: 20, ForceTrace: true, Restrict: restrict}, true)

			capped, ids := pairBoundsEngine(t, n, 0, func(cfg *Config) { cfg.RankThreshold = threshold })
			if ties, _ := checkPairBounds(t, "capped", capped, qs, ids[:2], opt, true); ties == 0 {
				t.Fatalf("threshold %v tied no bounds across Hamming distances", threshold)
			}
			sketchOnly, ids := pairBoundsEngine(t, n, 0, func(cfg *Config) { cfg.SketchOnly = true })
			checkPairBounds(t, "sketch-only", sketchOnly, qs, ids[:2], opt, true)
			mixed, ids := pairBoundsEngine(t, n, 10, nil)
			checkPairBounds(t, "mixed", mixed, qs, ids[:2], opt, false)
		})
	}
}
