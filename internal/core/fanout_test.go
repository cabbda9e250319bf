package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"ferret/internal/emd"
	"ferret/internal/object"
	"ferret/internal/telemetry/trace"
)

// fanoutEngine opens imageEngine's 2 000-image corpus at GOMAXPROCS procs —
// procs−1 query helpers — with forced traces only, ranking by dist (nil: the
// built-in EMD).
func fanoutEngine(t *testing.T, procs int, dist func(a, b object.Object) float64) *Engine {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return imageEngine(t, 2000, func(cfg *Config) {
		cfg.ObjectDistance = dist
		cfg.Trace = trace.Params{SampleEvery: -1, SlowThreshold: -1}
	})
}

// rankLedger is one forced-trace answer's rank span attributes.
func rankLedger(t *testing.T, e *Engine, ans Answer) map[string]int64 {
	t.Helper()
	sp, ok := findTrace(t, e, ans.Trace).Span(StageRank)
	if !ok {
		t.Fatal("no rank span")
	}
	ledger := map[string]int64{}
	for _, at := range sp.Attrs {
		ledger[at.Key] = at.Val
	}
	return ledger
}

// lagHelpers makes helpers' walk evaluations lag at random — a quarter of
// them by up to 300µs — so the published bound trails the committed prefix
// by many positions and positions past the stop are speculated, then
// dropped. It returns how many helper evaluations ran.
func lagHelpers(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	walkLag = func(int) {
		n.Add(1)
		if rand.Intn(4) == 0 {
			time.Sleep(time.Duration(rand.Intn(300)) * time.Microsecond)
		}
	}
	t.Cleanup(func() { walkLag = nil })
	return &n
}

// TestRankFanoutMatchesSerial: a rank walk spread over helpers commits what a
// lone caller would. Engines at GOMAXPROCS 1 (no helper) and 4 (three) answer
// 32 queries at K 1, 5 and 20, with and without a Restrict set, on the
// built-in EMD and on a plug-in ObjectDistance, while helper evaluations lag
// at random: every answer is identical bit for bit, and so are the pruned,
// evaluated and abandoned counts of every query.
func TestRankFanoutMatchesSerial(t *testing.T) {
	plugin := emd.ObjectDistance(emd.Options{Threshold: 2})
	qs := imageQueries(32)
	restrict := map[object.ID]bool{}
	for i := object.ID(1); i <= 2000; i += 3 {
		restrict[i], restrict[i+1] = true, true
	}
	lagged := lagHelpers(t)
	spread := map[bool]int{} // walks that fanned out, by plug-in
	for _, dist := range []func(a, b object.Object) float64{nil, plugin} {
		serial, fan := fanoutEngine(t, 1, dist), fanoutEngine(t, 4, dist)
		for _, k := range []int{1, 5, 20} {
			for _, r := range []map[object.ID]bool{nil, restrict} {
				for _, q := range qs {
					opt := QueryOptions{K: k, Restrict: r, ForceTrace: true}
					want, err := serial.Search(context.Background(), q, opt)
					if err != nil {
						t.Fatal(err)
					}
					got, err := fan.Search(context.Background(), q, opt)
					if err != nil {
						t.Fatal(err)
					}
					if len(got.Results) != len(want.Results) {
						t.Fatalf("%s K %d: %d results, serial %d", q.Key, k, len(got.Results), len(want.Results))
					}
					for i, w := range want.Results {
						if g := got.Results[i]; g.ID != w.ID || math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
							t.Fatalf("%s K %d restrict %v: result %d is %d at %v, serial %d at %v", q.Key, k, r != nil, i, g.ID, g.Distance, w.ID, w.Distance)
						}
					}
					gl, wl := rankLedger(t, fan, got), rankLedger(t, serial, want)
					if gl["pruned"] != wl["pruned"] || gl["evals"] != wl["evals"] || gl["abandoned"] != wl["abandoned"] {
						t.Fatalf("%s K %d restrict %v: rank ledger %v, serial %v", q.Key, k, r != nil, gl, wl)
					}
					if wl["workers"] != 1 {
						t.Fatalf("the GOMAXPROCS 1 engine ranked on %d workers", wl["workers"])
					}
					if gl["workers"] > 1 {
						spread[dist != nil]++
					}
				}
			}
		}
	}
	if spread[true] != 0 {
		t.Fatalf("%d plug-in walks fanned out; a walk in candidate order stays on its caller", spread[true])
	}
	if spread[false] == 0 || lagged.Load() == 0 {
		t.Fatalf("%d walks fanned out, %d helper evaluations: nothing was spread", spread[false], lagged.Load())
	}
	t.Logf("%d of %d built-in walks fanned out; helpers evaluated %d positions", spread[false], 3*2*len(qs), lagged.Load())
}

// TestRankFanoutCancelAndBudget: a walk whose helpers are mid-evaluation when
// the query's context is cancelled returns the context's error, and one whose
// budget expires while a helper holds up the commit returns a degraded answer
// whose head is the exact ranking of the committed prefix and whose tail
// follows in lower-bound order from the first uncommitted position.
func TestRankFanoutCancelAndBudget(t *testing.T) {
	e := fanoutEngine(t, 4, nil)
	qs := imageQueries(16)
	var (
		cancel  atomic.Pointer[context.CancelFunc]
		stall   atomic.Bool
		stalled atomic.Int64
	)
	walkLag = func(int) {
		if c := cancel.Load(); c != nil {
			(*c)()
		}
		if stall.CompareAndSwap(true, false) {
			stalled.Add(1)
			time.Sleep(30 * time.Millisecond)
		}
	}
	t.Cleanup(func() { walkLag = nil })

	cancelled := 0
	for _, q := range qs {
		ctx, c := context.WithCancel(context.Background())
		cancel.Store(&c)
		_, err := e.Search(ctx, q, QueryOptions{K: 20})
		cancel.Store(nil)
		switch {
		case ctx.Err() == nil:
			c() // no helper took the walk
		case !errors.Is(err, context.Canceled):
			t.Fatalf("%s: cancelled mid-walk, got error %v", q.Key, err)
		default:
			cancelled++
		}
	}

	degraded := 0
	for _, q := range qs {
		stall.Store(true)
		ans, err := e.Search(context.Background(), q, QueryOptions{K: 20, Budget: 20 * time.Millisecond})
		stall.Store(false)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Degraded {
			degraded++
			checkDegraded(t, e, q, ans.Results, 20)
		}
	}
	if cancelled == 0 || degraded == 0 || stalled.Load() == 0 {
		t.Fatalf("%d walks cancelled, %d degraded, %d stalled: the cases went untested", cancelled, degraded, stalled.Load())
	}
	t.Logf("of %d queries, %d cancelled mid-walk, %d degraded", len(qs), cancelled, degraded)

	// The helpers are free again: an unhurried query answers in full.
	want := fanoutEngine(t, 1, nil)
	for _, q := range qs[:4] {
		got, err := e.Search(context.Background(), q, QueryOptions{K: 20})
		if err != nil {
			t.Fatal(err)
		}
		w, _ := want.Search(context.Background(), q, QueryOptions{K: 20})
		if !slices.Equal(got.Results, w.Results) || got.Degraded {
			t.Fatalf("%s after the stalls: %v, serial %v", q.Key, got.Results, w.Results)
		}
	}
}

// checkDegraded verifies a budget-degraded answer of k results against the
// query's candidates: for some first uncommitted walk position c, the head
// is the exact ranking of the committed prefix lbs[:c] and the tail is
// lbs[c:] in order, carrying the lower bounds.
func checkDegraded(t *testing.T, e *Engine, q object.Object, res []Result, k int) {
	t.Helper()
	v := e.cur.Load()
	sc := getScratch()
	defer putScratch(sc)
	loadScratch(sc, q, e.buildSketchSet(q), QueryOptions{K: k})
	e.filter(v, sc)
	lbs := slices.Clone(e.lowerBounds(v, sc.cands, e.cfg.SqrtWeights, sc))
	exact := make([]float64, len(lbs))
	for i, c := range lbs {
		o, ok := e.meta.GetObject(v.entries[c.idx].id)
		if !ok {
			t.Fatalf("candidate %d has no feature-vector record", c.idx)
		}
		exact[i] = e.objDist(q, o)
	}
	same := func(r Result, idx int, d float64) bool {
		return r.ID == v.entries[idx].id && math.Float64bits(r.Distance) == math.Float64bits(d)
	}
	// headOK: res[:h] is the h smallest exact distances of lbs[:c], each
	// result carrying its own exact distance.
	headOK := func(h, c int) bool {
		ds := slices.Clone(exact[:c])
		slices.Sort(ds)
		byID := map[object.ID]float64{}
		for i, lb := range lbs[:c] {
			byID[v.entries[lb.idx].id] = exact[i]
		}
		for i, r := range res[:h] {
			if d, ok := byID[r.ID]; !ok || math.Float64bits(d) != math.Float64bits(r.Distance) || math.Float64bits(ds[i]) != math.Float64bits(r.Distance) {
				return false
			}
		}
		return true
	}
	// A tail follows only a head that never filled: then every committed
	// position was solved, so the head has c results.
	for c := 0; c <= min(k, len(lbs)); c++ {
		tail := res[min(c, len(res)):]
		ok := len(res) == min(k, len(lbs)) && c <= len(res)
		for i := 0; ok && i < len(tail); i++ {
			ok = same(tail[i], lbs[c+i].idx, lbs[c+i].lb)
		}
		if ok && headOK(c, c) {
			return
		}
	}
	// A full head: the walk committed past the last result it holds.
	last := 0
	for _, r := range res {
		for i, lb := range lbs {
			if v.entries[lb.idx].id == r.ID {
				last = max(last, i+1)
			}
		}
	}
	if len(res) != k || !headOK(k, last) {
		t.Fatalf("%s: degraded answer %v is neither an exact head plus a lower-bound tail nor an exact top %d", q.Key, res, k)
	}
}
