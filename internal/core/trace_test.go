package core

import (
	"context"
	"fmt"
	"math/rand"
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
// and the look-ups land in ferret_hindex_lookups_total.
func TestDescentSpans(t *testing.T) {
	const d, nseg = 8, 3
	cfg := traceTestConfig(t.TempDir(), d)
	cfg.HIndex = HIndexParams{Enable: true}
	e := openEngine(t, cfg)
	ingestClusters(t, e, 30, 6, d, nseg)
	e.Compact()
	tables := int64(e.Stat().HIndexTables)

	q := clusterObject("q", 3, d, nseg, 0.01, rand.New(rand.NewSource(22)))
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
	var lookups int64
	for _, name := range []string{StageHProbe, StageHVerify} {
		sp, ok := tr.Span(name)
		if !ok {
			t.Fatalf("no %s span in %s", name, tr.Compact())
		}
		if sp.Start < filter.Start || sp.Start+sp.Dur > filter.Start+filter.Dur {
			t.Fatalf("%s span lies outside the filter span: %s", name, tr.Compact())
		}
		attrs := map[string]int64{}
		for _, at := range sp.Attrs {
			attrs[at.Key] = at.Val
		}
		// A step covers one more bit of radius and makes at least one look-up.
		if attrs["rounds"] != attrs["radius"]/tables+1 || attrs["lookups"] <= attrs["radius"] || attrs["candidates"] < 1 {
			t.Fatalf("%s attrs %v: want rounds = radius/%d + 1, lookups > radius, candidates ≥ 1", name, attrs, tables)
		}
		lookups = attrs["lookups"]
	}
	if got := e.Telemetry().Value("ferret_hindex_lookups_total"); int64(got) != lookups {
		t.Fatalf("ferret_hindex_lookups_total = %v after one query whose spans report %d look-ups", got, lookups)
	}
}

// TestBatchTraceSharedScanSpan: every query of one SearchBatch group must
// retain a trace whose scan span references the same shared span ID — the
// cross-trace proof that the batch rode one physical arena scan — and the
// queue and rank stages must be present per query.
func TestBatchTraceSharedScanSpan(t *testing.T) {
	const d, nseg = 8, 3
	e := openEngine(t, traceTestConfig(t.TempDir(), d))
	ingestClusters(t, e, 6, 5, d, nseg)

	rng := rand.New(rand.NewSource(21))
	queries := make([]object.Object, 5)
	for i := range queries {
		queries[i] = clusterObject(fmt.Sprintf("q%d", i), i%6, d, nseg, 0.02, rng)
	}
	answers, errs := e.SearchBatch(context.Background(), queries, QueryOptions{K: 4, ForceTrace: true})

	var sharedRef trace.SpanID
	seen := map[string]bool{}
	for i := range answers {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		ti := answers[i].Trace
		tr := findTrace(t, e, ti)
		if seen[ti.ID] {
			t.Fatalf("query %d: trace ID %s reused across queries", i, ti.ID)
		}
		seen[ti.ID] = true

		sp, ok := tr.Span(StageScan)
		if !ok {
			t.Fatalf("query %d: no scan span in %s", i, tr.Compact())
		}
		if sp.Ref == 0 {
			t.Fatalf("query %d: scan span has no shared ref: %s", i, tr.Compact())
		}
		if sharedRef == 0 {
			sharedRef = sp.Ref
		} else if sp.Ref != sharedRef {
			t.Fatalf("query %d: scan ref %s, batch siblings have %s", i, sp.Ref, sharedRef)
		}
		for _, name := range []string{StageSketch, StageQueue, StageRank} {
			if _, ok := tr.Span(name); !ok {
				t.Fatalf("query %d: no %s span in %s", i, name, tr.Compact())
			}
		}
		// The wire-facing stage aggregation must cover the pipeline too.
		stages := map[string]bool{}
		for _, st := range ti.Stages {
			stages[st.Name] = true
		}
		for _, name := range []string{StageQueue, StageScan, StageRank, "total"} {
			if !stages[name] {
				t.Fatalf("query %d: stage breakdown %v missing %s", i, ti.Stages, name)
			}
		}
	}
}

// TestDegradedQueryInSlowLog: a budget-degraded query must always appear in
// the slow-query log — with sampling and the duration trigger both disabled,
// only the degraded marking can have put it there — carrying the queue,
// shared-scan, and rank spans that explain where its time went.
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
		for _, name := range []string{StageQueue, StageScan, StageRank} {
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

// TestSerialSearchTraced: the unbatched pipeline (a Search) must produce
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
	if !e.tracer.BeginWith(&act, "caller", 0, true) {
		t.Fatal("tracer disabled")
	}
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
