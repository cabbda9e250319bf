package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"ferret/internal/attr"
	"ferret/internal/core"
	"ferret/internal/object"
	"ferret/internal/protocol"
	"ferret/internal/sketch"
)

// startServerV2 is startServer with the result cache switched on; it returns
// the listen address so tests can dial several clients against the same
// server.
func startServerV2(t *testing.T, extract ExtractFunc) (string, *core.Engine) {
	t.Helper()
	const d = 6
	min := make([]float32, d)
	max := make([]float32, d)
	for i := range max {
		max[i] = 1
	}
	engine, err := core.Open(core.Config{
		Dir:         t.TempDir(),
		Sketch:      sketch.Params{N: 128, K: 1, Min: min, Max: max, Seed: 9},
		ResultCache: core.ResultCacheParams{Enable: true},
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
			key := fmt.Sprintf("c%d/m%d", c, m)
			o := object.Single(key, vec)
			if _, err := engine.Ingest(o, attr.Attrs{"cluster": fmt.Sprintf("c%d", c), "note": "synthetic object"}); err != nil {
				t.Fatal(err)
			}
		}
	}

	srv := &Server{Engine: engine, Extract: extract, DefaultK: 5}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String(), engine
}

// dialV2 dials and upgrades a client to the binary protocol.
func dialV2(t *testing.T, addr string) *protocol.Client {
	t.Helper()
	c, err := protocol.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ok, err := c.TryUpgradeV2()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("server refused the v2 upgrade")
	}
	if !c.ProtoV2() {
		t.Fatal("client did not record the upgrade")
	}
	return c
}

func dialText(t *testing.T, addr string) *protocol.Client {
	t.Helper()
	c, err := protocol.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestV2QueryEquivalence pins that an upgraded connection returns answers
// bit-identical to the text protocol, across every query mode.
func TestV2QueryEquivalence(t *testing.T) {
	addr, _ := startServerV2(t, nil)
	tc := dialText(t, addr)
	bc := dialV2(t, addr)

	for _, mode := range []string{"", "filtering", "bruteforce", "sketch"} {
		want, err := tc.Query("c1/m0", protocol.QueryParams{K: 4, Mode: mode})
		if err != nil {
			t.Fatalf("text mode %q: %v", mode, err)
		}
		got, err := bc.Query("c1/m0", protocol.QueryParams{K: 4, Mode: mode})
		if err != nil {
			t.Fatalf("v2 mode %q: %v", mode, err)
		}
		if len(got) != len(want) {
			t.Fatalf("mode %q: %d v2 results, %d text results", mode, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mode %q result %d: v2 %+v, text %+v", mode, i, got[i], want[i])
			}
		}
	}
	if _, err := bc.Query("c0/m0", protocol.QueryParams{Mode: "warp"}); err == nil {
		t.Fatal("v2 accepted an unknown mode")
	}
	if _, err := bc.Query("no/such", protocol.QueryParams{}); err == nil {
		t.Fatal("v2 accepted an unknown key")
	}
}

// TestV2CacheFlag drives the miss-then-hit progression through the binary
// protocol and checks both clients see the cache= flag.
func TestV2CacheFlag(t *testing.T) {
	addr, _ := startServerV2(t, nil)
	bc := dialV2(t, addr)

	first, meta1, err := bc.QueryMeta("c2/m1", protocol.QueryParams{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if meta1.Cache != "miss" {
		t.Fatalf("first query cache = %q, want miss", meta1.Cache)
	}
	second, meta2, err := bc.QueryMeta("c2/m1", protocol.QueryParams{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Cache != "hit" {
		t.Fatalf("second query cache = %q, want hit", meta2.Cache)
	}
	if len(first) != len(second) {
		t.Fatalf("hit returned %d results, miss %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("result %d differs across hit/miss: %+v vs %+v", i, first[i], second[i])
		}
	}

	// The text protocol reports the same flag.
	tc := dialText(t, addr)
	_, tmeta, err := tc.QueryMeta("c2/m1", protocol.QueryParams{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tmeta.Cache != "hit" {
		t.Fatalf("text query cache = %q, want hit", tmeta.Cache)
	}
}

// TestV2Trace asks for tracing over the binary protocol and checks the trace
// ID and stage breakdown — protocol parse first, as on a text connection —
// come back, and that the trace is retrievable.
func TestV2Trace(t *testing.T) {
	addr, _ := startServerV2(t, nil)
	bc := dialV2(t, addr)

	_, meta, err := bc.QueryMeta("c0/m2", protocol.QueryParams{K: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if meta.TraceID == "" {
		t.Fatal("traced v2 query returned no trace ID")
	}
	if len(meta.Stages) == 0 || meta.Stages[0].Name != "parse" {
		t.Fatalf("traced v2 query's stages %v do not start with the parse span", meta.Stages)
	}
	traces, err := bc.Traces(5, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("TRACE over v2 returned nothing after a traced query")
	}
}

// TestV2BatchEquivalence compares BATCHQUERY across the two protocols,
// including the per-item error for an unknown key.
func TestV2BatchEquivalence(t *testing.T) {
	addr, _ := startServerV2(t, nil)
	tc := dialText(t, addr)
	bc := dialV2(t, addr)

	keys := []string{"c0/m0", "no/such", "c2/m3"}
	want, err := tc.BatchQuery(keys, protocol.QueryParams{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := bc.BatchQuery(keys, protocol.QueryParams{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d v2 items, %d text items", len(got), len(want))
	}
	for i := range want {
		if (got[i].Err == "") != (want[i].Err == "") {
			t.Fatalf("item %d: v2 err %q, text err %q", i, got[i].Err, want[i].Err)
		}
		if len(got[i].Results) != len(want[i].Results) {
			t.Fatalf("item %d: %d v2 results, %d text results", i, len(got[i].Results), len(want[i].Results))
		}
		for j := range want[i].Results {
			if got[i].Results[j] != want[i].Results[j] {
				t.Fatalf("item %d result %d: %+v vs %+v", i, j, got[i].Results[j], want[i].Results[j])
			}
		}
	}
}

// TestV2PairsAndTunnel exercises the pairs opcodes (PING, COUNT, STATS,
// DELETE) and the OpText tunnel (INFO, TELEMETRY, SEARCH, keyword-restricted
// QUERY) over one upgraded connection.
func TestV2PairsAndTunnel(t *testing.T) {
	addr, _ := startServerV2(t, nil)
	bc := dialV2(t, addr)

	if err := bc.Ping(); err != nil {
		t.Fatal(err)
	}
	n, err := bc.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("count = %d", n)
	}

	stats, err := bc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["objects"] != "12" {
		t.Fatalf("stats objects = %q", stats["objects"])
	}
	if stats["v2_connections"] == "" || stats["v2_connections"] == "0" {
		t.Fatalf("stats v2_connections = %q, want >= 1", stats["v2_connections"])
	}
	if stats["wire_buf_gets_total"] == "" {
		t.Fatal("stats missing wire_buf_gets_total")
	}

	// Tunneled commands: attribute fetch, telemetry dump, attribute search,
	// and a keyword-restricted query (not expressible in the binary frame).
	info, err := bc.Info("c1/m1")
	if err != nil {
		t.Fatal(err)
	}
	if info["attr:cluster"] != "c1" {
		t.Fatalf("info cluster = %q", info["attr:cluster"])
	}
	tel, err := bc.Telemetry()
	if err != nil {
		t.Fatal(err)
	}
	if len(tel) == 0 {
		t.Fatal("empty telemetry over the tunnel")
	}
	if _, ok := tel["ferret_server_v2_connections"]; !ok {
		t.Fatal("telemetry missing ferret_server_v2_connections")
	}
	found, err := bc.Search(nil, map[string]string{"cluster": "c2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 4 {
		t.Fatalf("search matched %d objects, want 4", len(found))
	}
	restricted, err := bc.Query("c1/m0", protocol.QueryParams{K: 8, Keywords: []string{"synthetic"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range restricted {
		if !strings.HasPrefix(r.Key, "c") {
			t.Fatalf("restricted result %q", r.Key)
		}
	}

	if err := bc.Delete("c0/m3"); err != nil {
		t.Fatal(err)
	}
	n, err = bc.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 11 {
		t.Fatalf("count after delete = %d", n)
	}
}

// TestV2Ingest feeds ADDFILE through the binary frame and checks the object
// lands with its attributes.
func TestV2Ingest(t *testing.T) {
	extract := func(path string) (object.Object, error) {
		vec := make([]float32, 6)
		for i := range vec {
			vec[i] = 0.5 + float32(i)*0.001
		}
		return object.Single(path, vec), nil
	}
	addr, engine := startServerV2(t, extract)
	bc := dialV2(t, addr)

	if err := bc.AddFile("new/object", map[string]string{"cluster": "cx"}); err != nil {
		t.Fatal(err)
	}
	if n := engine.Count(); n != 13 {
		t.Fatalf("count after ingest = %d", n)
	}
	info, err := bc.Info("new/object")
	if err != nil {
		t.Fatal(err)
	}
	if info["attr:cluster"] != "cx" {
		t.Fatalf("ingested attrs = %v", info)
	}
}

// TestServePathAllocs is the serving-path allocation contract: a cached v2
// QUERY dispatched through handleFrame — decode, cache lookup, pooled
// encode, write — performs zero heap allocations per request.
func TestServePathAllocs(t *testing.T) {
	const d = 6
	min := make([]float32, d)
	max := make([]float32, d)
	for i := range max {
		max[i] = 1
	}
	engine, err := core.Open(core.Config{
		Dir:         t.TempDir(),
		Sketch:      sketch.Params{N: 128, K: 1, Min: min, Max: max, Seed: 9},
		ResultCache: core.ResultCacheParams{Enable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	for c := 0; c < 3; c++ {
		for m := 0; m < 4; m++ {
			vec := make([]float32, d)
			for i := range vec {
				vec[i] = float32(c)/3 + float32(m)*0.01 + float32(i)*0.001
			}
			o := object.Single(fmt.Sprintf("c%d/m%d", c, m), vec)
			if _, err := engine.Ingest(o, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	srv := &Server{Engine: engine, DefaultK: 5}
	met := srv.metrics()
	// One interface value per connection, exactly as handleConn boxes it.
	var w io.Writer = countingWriter{w: io.Discard, c: met.bytesWritten}
	st := &connState{}
	ctx := context.Background()
	payload := protocol.AppendQueryV2(nil, "c1/m0", 5, "", 0, 0)

	// Warm call: populates the result cache and the wire-buffer pool.
	if err := srv.handleFrame(ctx, w, st, protocol.OpQuery, payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := srv.handleFrame(ctx, w, st, protocol.OpQuery, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached v2 QUERY path: %.1f allocs/op, want 0", allocs)
	}
}
