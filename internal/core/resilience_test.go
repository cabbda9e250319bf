package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"ferret/internal/metastore"
	"ferret/internal/object"
)

// expectedDegradedResults computes, white-box, what a Filtering query whose
// budget expires before the first rank evaluation must return: the filter's
// candidate set in ascending sketch-lower-bound order, truncated to K, with
// Distance carrying the lower-bound estimate.
func expectedDegradedResults(t *testing.T, e *Engine, q *queryProbe, opt QueryOptions) []Result {
	t.Helper()
	sc := getScratch()
	defer putScratch(sc)
	loadScratch(sc, q.obj, q.set, opt)
	v := e.cur.Load()
	e.filter(v, sc)
	lbs := e.lowerBounds(v, sc.cands, e.cfg.SqrtWeights, sc)
	k := opt.K
	if len(lbs) < k {
		k = len(lbs)
	}
	out := make([]Result, 0, k)
	for _, c := range lbs[:k] {
		ent := &v.entries[c.idx]
		out = append(out, Result{ID: ent.id, Key: ent.key, Distance: c.lb})
	}
	return out
}

type queryProbe struct {
	obj object.Object
	set *metastore.SketchSet
}

func newQueryProbe(e *Engine, d, nseg int) *queryProbe {
	rng := rand.New(rand.NewSource(99))
	o := clusterObject("query", 0, d, nseg, 0.01, rng)
	return &queryProbe{obj: o, set: e.buildSketchSet(o)}
}

// TestBudgetExpiryDegradesToSketchOrder pins the degradation contract: a
// query whose budget has already expired when ranking starts must return the
// candidate set in ascending sketch-lower-bound order (Distance = the sketch
// estimate), flagged Degraded, and bump ferret_queries_degraded_total —
// never an error, never a hang, never exact-looking distances.
func TestBudgetExpiryDegradesToSketchOrder(t *testing.T) {
	const d, nseg = 6, 3
	e := openEngine(t, testConfig(t.TempDir(), d))
	ingestClusters(t, e, 4, 12, d, nseg)
	q := newQueryProbe(e, d, nseg)
	opt := QueryOptions{K: 5}

	want := expectedDegradedResults(t, e, q, opt)
	if len(want) != opt.K {
		t.Fatalf("white-box expectation produced %d results, want %d", len(want), opt.K)
	}

	before := e.Telemetry().Value("ferret_queries_degraded_total")
	optB := opt
	optB.Budget = time.Nanosecond
	ans, err := e.Search(context.Background(), q.obj, optB)
	if err != nil {
		t.Fatalf("budget-expired Search: %v", err)
	}
	if !ans.Degraded {
		t.Fatal("budget-expired Search returned Degraded=false")
	}
	if got := e.Telemetry().Value("ferret_queries_degraded_total"); got != before+1 {
		t.Fatalf("ferret_queries_degraded_total = %v, want %v", got, before+1)
	}
	if len(ans.Results) != len(want) {
		t.Fatalf("degraded Search returned %d results, want %d", len(ans.Results), len(want))
	}
	for i := range want {
		got := ans.Results[i]
		if got.ID != want[i].ID || got.Key != want[i].Key {
			t.Errorf("result %d: got %d/%q, want %d/%q (sketch-LB order violated)",
				i, got.ID, got.Key, want[i].ID, want[i].Key)
		}
		if got.Distance != want[i].Distance {
			t.Errorf("result %d: Distance = %v, want sketch lower bound %v",
				i, got.Distance, want[i].Distance)
		}
	}
	for i := 1; i < len(ans.Results); i++ {
		if ans.Results[i].Distance < ans.Results[i-1].Distance {
			t.Errorf("degraded results not ascending at %d: %v < %v",
				i, ans.Results[i].Distance, ans.Results[i-1].Distance)
		}
	}
}

// TestBudgetExpiryBruteForce covers the brute-force modes, which have no
// candidate tail to fall back on: an expired budget yields a (possibly
// empty) prefix answer with Degraded set, not an error.
func TestBudgetExpiryBruteForce(t *testing.T) {
	const d, nseg = 6, 3
	e := openEngine(t, testConfig(t.TempDir(), d))
	ingestClusters(t, e, 2, 8, d, nseg)
	q := newQueryProbe(e, d, nseg)
	for _, mode := range []Mode{BruteForceOriginal, BruteForceSketch} {
		ans, err := e.Search(context.Background(), q.obj,
			QueryOptions{Mode: mode, K: 3, Budget: time.Nanosecond})
		if err != nil {
			t.Fatalf("%v: budget-expired Search: %v", mode, err)
		}
		if !ans.Degraded {
			t.Errorf("%v: budget-expired Search returned Degraded=false", mode)
		}
	}
}

// TestCancelledContextAbortsSearch pins the other half of the contract:
// context cancellation is a hard abort with the context's error, in every
// mode, with no partial answer.
func TestCancelledContextAbortsSearch(t *testing.T) {
	const d, nseg = 6, 3
	e := openEngine(t, testConfig(t.TempDir(), d))
	ingestClusters(t, e, 2, 8, d, nseg)
	q := newQueryProbe(e, d, nseg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range []Mode{Filtering, BruteForceOriginal, BruteForceSketch} {
		ans, err := e.Search(ctx, q.obj, QueryOptions{Mode: mode, K: 3})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: cancelled Search returned err=%v, want context.Canceled", mode, err)
		}
		if len(ans.Results) != 0 {
			t.Errorf("%v: cancelled Search returned %d results, want none", mode, len(ans.Results))
		}
	}
}

// TestUnbudgetedSearchNotDegraded asserts that with no budget and a live
// context, Search never reports degradation.
func TestUnbudgetedSearchNotDegraded(t *testing.T) {
	const d, nseg = 6, 3
	e := openEngine(t, testConfig(t.TempDir(), d))
	ingestClusters(t, e, 4, 12, d, nseg)
	q := newQueryProbe(e, d, nseg)
	for _, mode := range []Mode{Filtering, BruteForceOriginal, BruteForceSketch} {
		opt := QueryOptions{Mode: mode, K: 5}
		ans, err := e.Search(context.Background(), q.obj, opt)
		if err != nil {
			t.Fatalf("%v: Search: %v", mode, err)
		}
		if ans.Degraded {
			t.Errorf("%v: unbudgeted Search reported Degraded", mode)
		}
	}
}
