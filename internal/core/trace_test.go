package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ferret/internal/object"
	"ferret/internal/telemetry/trace"
)

// traceTestConfig disables head sampling and the duration-based slow trigger,
// so only forced retention and MarkSlow can publish traces — the properties
// under test, isolated from timing.
func traceTestConfig(dir string, d int) Config {
	cfg := testConfig(dir, d)
	cfg.Trace = trace.Params{SampleEvery: -1, SlowThreshold: -1}
	return cfg
}

// findTrace resolves one answer's retained trace through the engine tracer.
func findTrace(t *testing.T, e *Engine, ti *TraceInfo) *trace.Trace {
	t.Helper()
	if ti == nil {
		t.Fatal("answer carries no trace info")
	}
	id, err := trace.ParseTraceID(ti.ID)
	if err != nil {
		t.Fatal(err)
	}
	tr := e.tracer.Find(id)
	if tr == nil {
		t.Fatalf("trace %s not retained", ti.ID)
	}
	return tr
}

// TestDescentSpans: an index-served query's trace carries one hindex_probe and
// one hindex_verify span inside its filter span, each saying how deep the
// descent went — rounds begun, bucket look-ups made, Hamming radius covered —
// and the look-ups land in ferret_hindex_lookups_total. The filter span says
// how many workers shared the descent: one on an engine opened at GOMAXPROCS
// 1; at GOMAXPROCS 2 the query is repeated until a helper took a share, and
// the two spans must still nest inside the filter span.
func TestDescentSpans(t *testing.T) {
	const d, nseg = 8, 3
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			cfg := traceTestConfig(t.TempDir(), d)
			cfg.HIndex = HIndexParams{Enable: true}
			e := openEngine(t, cfg)
			ingestClusters(t, e, 30, 6, d, nseg)
			e.Compact()
			tables := int64(e.Stat().HIndexTables)

			q := clusterObject("q", 3, d, nseg, 0.01, rand.New(rand.NewSource(22)))
			var lookups int64
			for try := 0; ; try++ {
				ans, err := e.Search(context.Background(), q, QueryOptions{K: 4, ForceTrace: true, Filter: FilterParams{NearestPerSegment: 5}})
				if err != nil {
					t.Fatal(err)
				}
				if ans.FilterMode != FilterModeIndex {
					t.Fatalf("filter mode %q, want %q", ans.FilterMode, FilterModeIndex)
				}
				tr := findTrace(t, e, ans.Trace)
				filter, ok := tr.Span(StageFilter)
				if !ok {
					t.Fatalf("no filter span in %s", tr.Compact())
				}
				workers := int64(0)
				for _, at := range filter.Attrs {
					if at.Key == "workers" {
						workers = at.Val
					}
				}
				if workers < 1 || workers > int64(procs) {
					t.Fatalf("GOMAXPROCS %d: the filter span reports %d workers: %s", procs, workers, tr.Compact())
				}
				for _, name := range []string{StageHProbe, StageHVerify} {
					sp, ok := tr.Span(name)
					if !ok {
						t.Fatalf("no %s span in %s", name, tr.Compact())
					}
					if sp.Start < filter.Start || sp.Start+sp.Dur > filter.Start+filter.Dur {
						t.Fatalf("GOMAXPROCS %d, %d workers: %s span lies outside the filter span: %s", procs, workers, name, tr.Compact())
					}
					attrs := map[string]int64{}
					for _, at := range sp.Attrs {
						attrs[at.Key] = at.Val
					}
					// A step covers one more bit of radius and makes at least one look-up.
					if attrs["rounds"] != attrs["radius"]/tables+1 || attrs["lookups"] <= attrs["radius"] || attrs["candidates"] < 1 {
						t.Fatalf("%s attrs %v: want rounds = radius/%d + 1, lookups > radius, candidates ≥ 1", name, attrs, tables)
					}
					if name == StageHVerify {
						lookups += attrs["lookups"]
					}
				}
				if workers == int64(procs) {
					break
				}
				if try == 100 {
					t.Fatalf("GOMAXPROCS %d: no helper took a share of the descent in 100 queries", procs)
				}
			}
			if got := e.Telemetry().Value("ferret_hindex_lookups_total"); int64(got) != lookups {
				t.Fatalf("ferret_hindex_lookups_total = %v after queries whose spans report %d look-ups", got, lookups)
			}
		}()
	}
}

// TestFilterSpanSweptRows: the filter span's swept_rows attribute counts
// the arena rows the sweep scored — every row of an unindexed engine, only
// the live tail's beside index-served sealed segments.
func TestFilterSpanSweptRows(t *testing.T) {
	const d, nseg = 8, 3
	for _, index := range []bool{false, true} {
		cfg := traceTestConfig(t.TempDir(), d)
		cfg.HIndex = HIndexParams{Enable: index}
		e := openEngine(t, cfg)
		ingestClusters(t, e, 30, 6, d, nseg)
		e.Compact()
		rng := rand.New(rand.NewSource(22))
		for i := 0; i < 5; i++ { // a live tail
			if _, err := e.Ingest(clusterObject(fmt.Sprintf("tail%d", i), i, d, nseg, 0.01, rng), nil); err != nil {
				t.Fatal(err)
			}
		}
		want := 0
		for _, seg := range e.cur.Load().segs {
			if !index || !seg.probed() {
				want += seg.arena.rows()
			}
		}
		q := clusterObject("q", 3, d, nseg, 0.01, rng)
		ans, err := e.Search(context.Background(), q, QueryOptions{K: 4, ForceTrace: true, Filter: FilterParams{NearestPerSegment: 5}})
		if err != nil {
			t.Fatal(err)
		}
		if index && ans.FilterMode != FilterModeMixed {
			t.Fatalf("filter mode %q, want %q: the sealed segment should be index-served", ans.FilterMode, FilterModeMixed)
		}
		filter, ok := findTrace(t, e, ans.Trace).Span(StageFilter)
		if !ok {
			t.Fatal("no filter span")
		}
		got := int64(-1)
		for _, at := range filter.Attrs {
			if at.Key == "swept_rows" {
				got = at.Val
			}
		}
		if got != int64(want) {
			t.Fatalf("index %v: swept_rows %d, want %d", index, got, want)
		}
	}
}

// TestDegradedQueryInSlowLog: a budget-degraded query must always appear in
// the slow-query log — with sampling and the duration trigger both disabled,
// only the degraded marking can have put it there — carrying the sketch,
// filter, and rank spans that explain where its time went.
func TestDegradedQueryInSlowLog(t *testing.T) {
	const d, nseg = 8, 3
	e := openEngine(t, traceTestConfig(t.TempDir(), d))
	ingestClusters(t, e, 6, 5, d, nseg)

	rng := rand.New(rand.NewSource(31))
	queries := make([]object.Object, 4)
	for i := range queries {
		queries[i] = clusterObject(fmt.Sprintf("q%d", i), i, d, nseg, 0.02, rng)
	}
	answers, errs := e.SearchBatch(context.Background(), queries,
		QueryOptions{K: 5, Budget: time.Nanosecond, ForceTrace: true})

	slow := e.tracer.Slow()
	for i := range answers {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if !answers[i].Degraded {
			t.Fatalf("query %d: not degraded under 1ns budget", i)
		}
		ti := answers[i].Trace
		if ti == nil {
			t.Fatalf("query %d: no trace info", i)
		}
		var tr *trace.Trace
		for _, s := range slow {
			if s.ID.String() == ti.ID {
				tr = s
				break
			}
		}
		if tr == nil {
			t.Fatalf("degraded query %d (trace %s) missing from the slow-query log", i, ti.ID)
		}
		if !tr.Slow {
			t.Fatalf("query %d: retained trace not marked slow: %s", i, tr.Compact())
		}
		for _, name := range []string{StageSketch, StageFilter, StageRank} {
			if _, ok := tr.Span(name); !ok {
				t.Fatalf("query %d: slow trace lacks %s span: %s", i, name, tr.Compact())
			}
		}
		degraded := false
		for _, at := range tr.Spans[0].Attrs {
			if at.Key == "degraded" && at.Val == 1 {
				degraded = true
			}
		}
		if !degraded {
			t.Fatalf("query %d: root span lacks degraded attr: %s", i, tr.Compact())
		}
	}
}

// TestSerialSearchTraced: a Search must produce
// a complete forced trace too — sketch, filter, and rank spans plus the
// aggregated breakdown on the answer — and the rank span carries the whole
// rank ledger: every candidate was evaluated, abandoned or pruned, in the
// counts the engine's counters recorded.
func TestSerialSearchTraced(t *testing.T) {
	const d, nseg = 8, 3
	cfg := traceTestConfig(t.TempDir(), d)
	cfg.RankThreshold = 0.05
	e := openEngine(t, cfg)
	ingestClusters(t, e, 8, 8, d, nseg)

	rng := rand.New(rand.NewSource(41))
	q := clusterObject("q", 2, d, nseg, 0.02, rng)
	ans, err := e.Search(context.Background(), q, QueryOptions{K: 3, ForceTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := findTrace(t, e, ans.Trace)
	for _, name := range []string{StageSketch, StageFilter, StageRank} {
		if _, ok := tr.Span(name); !ok {
			t.Fatalf("no %s span in %s", name, tr.Compact())
		}
	}
	if len(e.tracer.Slow()) != 0 {
		t.Fatal("healthy query leaked into the slow-query log")
	}

	rank, _ := tr.Span(StageRank)
	ledger := map[string]int64{}
	for _, at := range rank.Attrs {
		ledger[at.Key] = at.Val
	}
	reg := e.Telemetry()
	for key, metric := range map[string]string{
		"evals":     "ferret_rank_distance_evals_total",
		"pruned":    "ferret_rank_emd_pruned_total",
		"abandoned": "ferret_rank_emd_abandoned_total",
	} {
		if got, ok := ledger[key]; !ok || float64(got) != reg.Value(metric) {
			t.Fatalf("rank span %s = %d (present %v), %s = %v: %s", key, got, ok, metric, reg.Value(metric), tr.Compact())
		}
	}
	if ledger["evals"]+ledger["pruned"]+ledger["abandoned"] != ledger["cands"] || ledger["abandoned"] == 0 {
		t.Fatalf("rank ledger %v: want evals + pruned + abandoned = cands with abandoned > 0", ledger)
	}
}

// TestCallerSuppliedTraceBuffer: a caller-armed Active passed through
// QueryOptions.Trace receives the pipeline spans, and the engine must not
// finish it — the caller owns retention (the server records its write span
// after the engine returns).
func TestCallerSuppliedTraceBuffer(t *testing.T) {
	const d, nseg = 8, 2
	e := openEngine(t, traceTestConfig(t.TempDir(), d))
	ingestClusters(t, e, 4, 4, d, nseg)

	rng := rand.New(rand.NewSource(51))
	q := clusterObject("q", 1, d, nseg, 0.02, rng)
	var act trace.Active
	e.tracer.BeginWith(&act, "caller", 0, true)
	if _, err := e.Search(context.Background(), q, QueryOptions{K: 3, Trace: &act}); err != nil {
		t.Fatal(err)
	}
	if !act.Armed() {
		t.Fatal("engine finished the caller's trace")
	}
	act.Record("write", time.Now(), time.Millisecond)
	tr := act.Finish()
	if tr == nil {
		t.Fatal("forced caller trace not retained")
	}
	for _, name := range []string{StageSketch, StageFilter, StageRank, "write"} {
		if _, ok := tr.Span(name); !ok {
			t.Fatalf("no %s span in %s", name, tr.Compact())
		}
	}
}
