package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"regexp"
	"testing"
	"time"

	"ferret/internal/attr"
	"ferret/internal/core"
	"ferret/internal/object"
	"ferret/internal/protocol"
	"ferret/internal/sketch"
	"ferret/internal/telemetry/trace"
)

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

// startTraceServer is startServer, additionally exposing the listen address
// (for raw-line requests) and tuning the tracer so only forced retention and
// degraded marking can publish traces.
func startTraceServer(t *testing.T, budget time.Duration) (*protocol.Client, *core.Engine, string) {
	t.Helper()
	const d = 6
	min := make([]float32, d)
	max := make([]float32, d)
	for i := range max {
		max[i] = 1
	}
	engine, err := core.Open(core.Config{
		Dir:    t.TempDir(),
		Sketch: sketch.Params{N: 128, K: 1, Min: min, Max: max, Seed: 9},
		Trace:  trace.Params{SampleEvery: -1, SlowThreshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { engine.Close() })
	for c := 0; c < 3; c++ {
		for m := 0; m < 4; m++ {
			vec := make([]float32, d)
			for i := range vec {
				vec[i] = float32(c)/3 + float32(m)*0.01 + float32(i)*0.001
			}
			o := object.Single(fmt.Sprintf("c%d/m%d", c, m), vec)
			if _, err := engine.Ingest(o, attr.Attrs{"cluster": fmt.Sprintf("c%d", c)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv := &Server{Engine: engine, DefaultK: 5, QueryBudget: budget}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), l)
	t.Cleanup(func() { srv.Close() })
	client, err := protocol.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, engine, l.Addr().String()
}

// findTrace waits for a trace to be retained: the server finishes a trace
// after it has written the response (the write span is part of it), so a
// client that has just read the response can be ahead of the retention.
func findTrace(engine *core.Engine, id trace.TraceID) *trace.Trace {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if tr := engine.Tracer().Find(id); tr != nil || time.Now().After(deadline) {
			return tr
		}
	}
}

// TestQueryTracedOverWire: trace=on returns the trace ID and a stage
// breakdown covering the whole query path, and the retained trace carries
// the serving-layer parse and write spans around the engine stages.
func TestQueryTracedOverWire(t *testing.T) {
	client, engine, addr := startTraceServer(t, 0)
	results, meta, err := client.QueryMeta("c1/m0", protocol.QueryParams{K: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	if !traceIDRe.MatchString(meta.TraceID) {
		t.Fatalf("trace ID %q not 16-hex", meta.TraceID)
	}
	stages := map[string]int64{}
	for _, st := range meta.Stages {
		stages[st.Name] = st.Dur
	}
	for _, name := range []string{"parse", core.StageSketch, core.StageFilter, core.StageRank, "total"} {
		if _, ok := stages[name]; !ok {
			t.Fatalf("stage breakdown %v missing %q", meta.Stages, name)
		}
	}

	id, err := trace.ParseTraceID(meta.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	tr := findTrace(engine, id)
	if tr == nil {
		t.Fatalf("trace %s not retained server-side", meta.TraceID)
	}
	if _, ok := tr.Span("write"); !ok {
		t.Fatalf("retained trace lacks the response-write span: %s", tr.Compact())
	}

	// The same query over an upgraded connection passes the same stages.
	_, v2meta, err := dialV2(t, addr).QueryMeta("c1/m0", protocol.QueryParams{K: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(v2meta.Stages) != len(meta.Stages) {
		t.Fatalf("v2 stages %v, text stages %v", v2meta.Stages, meta.Stages)
	}
	for i, st := range meta.Stages {
		if v2meta.Stages[i].Name != st.Name {
			t.Fatalf("v2 stages %v, text stages %v", v2meta.Stages, meta.Stages)
		}
	}

	// Untraced requests must not carry trace flags.
	_, meta, err = client.QueryMeta("c1/m0", protocol.QueryParams{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if meta.TraceID != "" || meta.Stages != nil {
		t.Fatalf("untraced response carries trace meta: %+v", meta)
	}
}

// TestTracePropagatedID: trace=<hexid> adopts the caller's trace ID — the
// response and the retained trace carry exactly that ID — and a malformed ID
// is an ERR, not a silent fresh trace.
func TestTracePropagatedID(t *testing.T) {
	_, engine, addr := startTraceServer(t, 0)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)

	const id = "00000000deadbeef"
	fmt.Fprintf(conn, "QUERY key=c0/m0 k=2 trace=%s\n", id)
	_, meta, err := protocol.ReadResponseMeta(rd)
	if err != nil {
		t.Fatal(err)
	}
	if meta.TraceID != id {
		t.Fatalf("response trace ID %q, want propagated %q", meta.TraceID, id)
	}
	tid, _ := trace.ParseTraceID(id)
	if findTrace(engine, tid) == nil {
		t.Fatalf("propagated trace %s not retained", id)
	}

	fmt.Fprintf(conn, "QUERY key=c0/m0 trace=not-hex\n")
	if _, _, err := protocol.ReadResponseMeta(rd); err == nil {
		t.Fatal("malformed trace ID accepted")
	}
}

// TestBatchQueryTracedGroups: a traced BATCHQUERY returns per-group trace
// IDs (all distinct) with per-group stage breakdowns.
func TestBatchQueryTracedGroups(t *testing.T) {
	client, _, _ := startTraceServer(t, 0)
	keys := []string{"c0/m0", "c1/m1", "c2/m2"}
	items, err := client.BatchQuery(keys, protocol.QueryParams{K: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, it := range items {
		if it.Err != "" {
			t.Fatalf("group %d: %s", i, it.Err)
		}
		if !traceIDRe.MatchString(it.Meta.TraceID) {
			t.Fatalf("group %d: trace ID %q not 16-hex", i, it.Meta.TraceID)
		}
		if seen[it.Meta.TraceID] {
			t.Fatalf("group %d: trace ID %s reused", i, it.Meta.TraceID)
		}
		seen[it.Meta.TraceID] = true
		if len(it.Meta.Stages) == 0 {
			t.Fatalf("group %d: no stage breakdown", i)
		}
	}
}

// TestTraceCommand: TRACE lists retained traces as compact lines; slow=1
// restricts to the slow-query log, which a budget-degraded query must reach.
func TestTraceCommand(t *testing.T) {
	client, _, _ := startTraceServer(t, 0)
	if _, _, err := client.QueryMeta("c0/m0", protocol.QueryParams{K: 2, Trace: true}); err != nil {
		t.Fatal(err)
	}
	pairs, err := client.Traces(5, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pairs["recent0"]; !ok {
		t.Fatalf("TRACE listing lacks recent0: %v", pairs)
	}
	slow, err := client.Traces(5, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(slow) != 0 {
		t.Fatalf("healthy query in the slow log: %v", slow)
	}

	// Degrade one query; it must surface through TRACE slow=1.
	if _, _, err := client.QueryMeta("c0/m0", protocol.QueryParams{K: 2, Trace: true, Budget: time.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	slow, err = client.Traces(5, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := slow["slow0"]; !ok {
		t.Fatalf("degraded query missing from TRACE slow=1: %v", slow)
	}
}
