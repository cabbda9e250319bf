package server

import (
	"bufio"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ferret/internal/protocol"
	"ferret/internal/telemetry"
)

// TestStatsIncludesTelemetry checks the STATS protocol extension: structural
// statistics are joined by pipeline counters and latency percentiles.
func TestStatsIncludesTelemetry(t *testing.T) {
	client, _ := startServer(t, nil)
	for i := 0; i < 2; i++ {
		if _, err := client.Query("c0/m0", protocol.QueryParams{K: 3}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Pre-existing structural fields survive.
	if st["objects"] != "12" {
		t.Fatalf("objects = %q", st["objects"])
	}
	// New telemetry fields ride along.
	if st["queries_total"] != "2" {
		t.Fatalf("queries_total = %q, want 2", st["queries_total"])
	}
	if st["inflight_queries"] != "0" {
		t.Fatalf("inflight_queries = %q", st["inflight_queries"])
	}
	for _, field := range []string{
		"query_errors_total", "ingests_total", "deletes_total",
		"candidates_total", "query_p50_seconds", "query_p99_seconds",
	} {
		v, ok := st[field]
		if !ok {
			t.Fatalf("STATS missing %s: %v", field, st)
		}
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			t.Fatalf("STATS %s = %q not numeric", field, v)
		}
	}
	if p50, _ := strconv.ParseFloat(st["query_p50_seconds"], 64); p50 <= 0 {
		t.Fatalf("query_p50_seconds = %q, want > 0 after queries", st["query_p50_seconds"])
	}
}

// TestTelemetryCommand checks the TELEMETRY protocol command dumps both the
// engine pipeline series and the serving-layer series as flat pairs.
func TestTelemetryCommand(t *testing.T) {
	client, _ := startServer(t, nil)
	if _, err := client.Query("c1/m1", protocol.QueryParams{K: 3}); err != nil {
		t.Fatal(err)
	}
	tel, err := client.Telemetry()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"ferret_query_total":                      "1",
		"ferret_server_requests_total_QUERY":      "1",
		"ferret_query_stage_seconds_rank_count":   "1",
		"ferret_query_stage_seconds_filter_count": "1",
	}
	for name, exp := range want {
		if got := tel[name]; got != exp {
			t.Errorf("%s = %q, want %q (dump: %d series)", name, got, exp, len(tel))
		}
	}
	// Byte counters and the request histogram must be live.
	for _, name := range []string{
		"ferret_server_read_bytes_total",
		"ferret_server_written_bytes_total",
		"ferret_server_request_seconds_count",
		"ferret_server_connections_total",
	} {
		v, ok := tel[name]
		if !ok {
			t.Fatalf("TELEMETRY missing %s", name)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			t.Fatalf("%s = %q, want > 0", name, v)
		}
	}
	// Every value in the dump is numeric.
	for name, v := range tel {
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			t.Errorf("series %s has non-numeric value %q", name, v)
		}
	}
}

// TestServerErrorsCounted checks request-level failures increment the error
// counter without dropping the connection.
func TestServerErrorsCounted(t *testing.T) {
	client, engine := startServer(t, nil)
	if _, err := client.Query("no-such-key", protocol.QueryParams{}); err == nil {
		t.Fatal("expected error")
	}
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
	if v := engine.Telemetry().Value("ferret_server_errors_total"); v != 1 {
		t.Fatalf("server errors = %g, want 1", v)
	}
}

// TestMetricsEndpointMonotone scrapes /metrics off the engine's registry
// twice around extra traffic: output must be well-formed Prometheus text and
// the query counters must be monotone.
func TestMetricsEndpointMonotone(t *testing.T) {
	client, engine := startServer(t, nil)
	h := telemetry.DebugHandler(engine.Telemetry())

	scrape := func() map[string]float64 {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("/metrics status %d", rec.Code)
		}
		out := map[string]float64{}
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			// Well-formed exposition line: "<series> <value>".
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("malformed metrics line %q", line)
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			out[line[:sp]] = v
		}
		return out
	}

	if _, err := client.Query("c0/m0", protocol.QueryParams{K: 3}); err != nil {
		t.Fatal(err)
	}
	first := scrape()
	if first["ferret_query_total"] != 1 {
		t.Fatalf("ferret_query_total = %g after one query", first["ferret_query_total"])
	}
	// Per-stage histograms exposed with stage labels.
	for _, series := range []string{
		`ferret_query_stage_seconds_count{stage="filter"}`,
		`ferret_query_stage_seconds_count{stage="rank"}`,
		`ferret_query_stage_seconds_count{stage="sketch"}`,
	} {
		if first[series] == 0 {
			t.Fatalf("series %s absent or zero", series)
		}
	}

	if _, err := client.Query("c2/m1", protocol.QueryParams{K: 3}); err != nil {
		t.Fatal(err)
	}
	second := scrape()
	for series, v1 := range first {
		if strings.Contains(series, "_total") || strings.Contains(series, "_count") {
			if second[series] < v1 {
				t.Errorf("counter %s went backwards: %g -> %g", series, v1, second[series])
			}
		}
	}
	if second["ferret_query_total"] != 2 {
		t.Fatalf("ferret_query_total = %g after two queries", second["ferret_query_total"])
	}
}

// TestMetricsWireBufCounters: /metrics reports the wire-buffer counters as
// counters that are current after every response, with no STATS or
// TELEMETRY request to refresh them.
func TestMetricsWireBufCounters(t *testing.T) {
	addr, engine := startServerV2(t, nil)
	bc := dialV2(t, addr)
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := bc.Query("c0/m0", protocol.QueryParams{K: 3}); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	telemetry.DebugHandler(engine.Telemetry()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := rec.Body.String()
	if !strings.Contains(out, "# TYPE ferret_wire_buf_gets_total counter\n") {
		t.Fatalf("ferret_wire_buf_gets_total is not a counter:\n%s", out)
	}
	i := strings.Index(out, "\nferret_wire_buf_gets_total ")
	if i < 0 {
		t.Fatal("no ferret_wire_buf_gets_total sample")
	}
	line := out[i+1:]
	line = line[:strings.IndexByte(line, '\n')]
	gets, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if gets < n {
		t.Fatalf("ferret_wire_buf_gets_total = %g after %d queries", gets, n)
	}
}
