package main

// The benchmark's fixed vocabulary: workload names, the end-to-end metrics
// with their regression bounds, and the per-layer metrics with the
// end-to-end metric and workload each one is predicted to move. The same
// tables are written out as BENCHMARK.json (smoke_test.go checks the two
// agree) and as the prediction table in README.md.

// workloadSpec is one fixed traffic mix. Later issues cite the names.
type workloadSpec struct {
	Name string
	Why  string

	image bool // MixedImageObjects corpus (multi-segment objects, EMD rank); else MixedShapeObjects
	wire  bool // queries go through server.Server over loopback TCP, protocol v2, by key
	cache bool // engine result cache on
	hot   bool // 16 seeded hot keys instead of a permutation of the corpus
	rw    bool // open-loop writer runs beside the reader inside the window
}

var workloads = []workloadSpec{
	{
		Name:  "image_engine",
		Why:   "In-process EMD-ranked search of 20k multi-segment image objects: rank and the multi-segment filter do the work; wire, cache and writes are idle.",
		image: true,
	},
	{
		Name: "shape_wire_cold",
		Why:  "Uncached by-key queries over loopback v2 on 40k one-segment 544-d shapes: filter, key lookup and wire dominate; EMD is a 1x1 no-op.",
		wire: true,
	},
	{
		Name: "shape_wire_hot",
		Why:  "Same corpus and server with the result cache on and 16 hot keys: the engine pipeline is bypassed, leaving frame decode, cache lookup, pooled encode and write.",
		wire: true, cache: true, hot: true,
	},
	{
		Name: "shape_rw",
		Why:  "In-process reader beside an open-loop 300 ops/s ingest+delete feed with seals and merges: a read gain bought with write cost, or the reverse, shows.",
		rw:   true,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec declares one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change is a regression
// (per-layer metrics have none). Moves/On record the prediction made before
// measuring: which end-to-end metric the layer metric should move, and on
// which workloads.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
	On     string
}

// endToEnd are the user-visible metrics, reported by the untraced run of
// every workload. Two of the issue's ten are per-layer metrics below, by the
// issue's own rule for a metric no bound can hold: query_p95_ms is
// bench.client_p95_ms (the p95 of the shape workloads, the 4 MB scan
// fallback, moved 36% between two ten-run sets of one commit), and
// bulk_ingest_obj_s is bench.bulk_ingest_obj_s (it is most of setup_s turned
// upside down, spread as widely, and unlike setup_s its spread is not exempt
// from the acceptance rule). write_ok_ops_s is 300 on shape_rw whenever the
// run is valid (run.go enforces >= 294) and a best-time rate on the others,
// which is what its bound is sized for. README.md has the numbers.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ok_frac", Unit: "ratio", Better: "higher", Bound: 0.001},
	{Name: "recall_at_20", Unit: "ratio", Better: "higher", Bound: 0.15},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "write_ok_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// perLayer are the traced run's metrics, "<layer>.<name>" with this
// repository's packages as the layers. A metric that does not apply to a
// workload (server.* on an in-process workload, core.write_wait_us without a
// concurrent reader) is reported as 0 there.
var perLayer = []metricSpec{
	{Name: "sketch.build_us", Unit: "us", Better: "lower", Moves: "setup_s, write_p50_ms, query_p50_ms", On: "all; shape_rw; image_engine+shape_rw (query by object)"},
	{Name: "sketch.scan_ns_per_row", Unit: "ns", Better: "lower", Moves: "qps, query_p50_ms", On: "shape_wire_cold, then image_engine"},

	{Name: "hindex.probe_us", Unit: "us", Better: "lower", Moves: "qps, query_p50_ms", On: "shape_wire_cold, shape_rw"},
	{Name: "hindex.candidate_frac", Unit: "ratio", Better: "lower", Moves: "qps, query_p50_ms", On: "shape_wire_cold, shape_rw"},
	{Name: "hindex.insert_us", Unit: "us", Better: "lower", Moves: "setup_s, write_p50_ms", On: "all"},
	{Name: "hindex.bytes_per_row", Unit: "B", Better: "lower", Moves: "heap_mb", On: "all"},

	{Name: "vector.l1_ns_14d", Unit: "ns", Better: "lower", Moves: "qps", On: "image_engine (inside EMD)"},
	{Name: "vector.l1_ns_544d", Unit: "ns", Better: "lower", Moves: "qps", On: "shape_wire_cold (rank)"},

	{Name: "emd.distance_us", Unit: "us", Better: "lower", Moves: "qps, query_p50_ms, bench.client_p95_ms", On: "image_engine"},
	{Name: "emd.allocs_per_call", Unit: "count", Better: "lower", Moves: "qps, bench.client_p95_ms", On: "image_engine"},

	{Name: "core.search_us", Unit: "us", Better: "lower", Moves: "query_p50_ms", On: "all but shape_wire_hot"},
	{Name: "core.sketch_us", Unit: "us", Better: "lower", Moves: "query_p50_ms", On: "image_engine, shape_rw"},
	{Name: "core.filter_us", Unit: "us", Better: "lower", Moves: "query_p50_ms", On: "shape_*"},
	{Name: "core.rank_us", Unit: "us", Better: "lower", Moves: "query_p50_ms", On: "image_engine"},
	{Name: "core.queue_wait_us", Unit: "us", Better: "lower", Moves: "query_p50_ms", On: "none today (scheduler off)"},
	{Name: "core.rows_scanned_per_query", Unit: "count", Better: "lower", Moves: "qps", On: "image_engine, shape_wire_cold"},
	{Name: "core.candidates_per_query", Unit: "count", Better: "lower", Moves: "qps", On: "image_engine, shape_wire_cold"},
	{Name: "core.emd_evals_per_query", Unit: "count", Better: "lower", Moves: "qps", On: "image_engine"},
	{Name: "core.emd_pruned_frac", Unit: "ratio", Better: "higher", Moves: "qps", On: "image_engine"},
	{Name: "core.index_served_frac", Unit: "ratio", Better: "higher", Moves: "qps", On: "image_engine, shape_wire_cold"},
	{Name: "core.allocs_per_query", Unit: "count", Better: "lower", Moves: "qps, bench.client_p95_ms (GC)", On: "image_engine; must stay ~0 on shape_wire_hot"},
	{Name: "core.alloc_bytes_per_query", Unit: "B", Better: "lower", Moves: "qps, bench.client_p95_ms (GC)", On: "image_engine"},
	{Name: "core.cache_hit_frac", Unit: "ratio", Better: "higher", Moves: "qps", On: "shape_wire_hot"},
	{Name: "core.cache_invalidations", Unit: "count", Better: "lower", Moves: "qps", On: "shape_wire_hot"},
	{Name: "core.ingest_us", Unit: "us", Better: "lower", Moves: "setup_s", On: "all"},
	{Name: "core.delete_us", Unit: "us", Better: "lower", Moves: "write_p50_ms", On: "shape_rw"},
	{Name: "core.compact_s", Unit: "s", Better: "lower", Moves: "setup_s", On: "shape_*"},
	{Name: "core.write_wait_us", Unit: "us", Better: "lower", Moves: "write_p50_ms", On: "shape_rw"},
	{Name: "core.seals", Unit: "count", Better: "lower", Moves: "qps, bench.client_p95_ms", On: "shape_rw"},
	{Name: "core.merges", Unit: "count", Better: "higher", Moves: "qps, bench.client_p95_ms", On: "shape_rw"},
	{Name: "core.segments_end", Unit: "count", Better: "lower", Moves: "qps, bench.client_p95_ms", On: "shape_rw"},

	{Name: "kvstore.commit_us", Unit: "us", Better: "lower", Moves: "setup_s, write_p50_ms", On: "all"},
	{Name: "kvstore.commit_sync_us", Unit: "us", Better: "lower", Moves: "none under SyncPeriodic", On: "reference for the per-commit fsync policy"},
	{Name: "kvstore.wal_bytes_per_object", Unit: "B", Better: "lower", Moves: "setup_s", On: "all"},
	{Name: "kvstore.checkpoint_ms", Unit: "ms", Better: "lower", Moves: "setup_s, write_p50_ms", On: "shape_rw (post-merge checkpoint)"},

	{Name: "metastore.add_object_us", Unit: "us", Better: "lower", Moves: "setup_s", On: "all"},
	{Name: "metastore.get_object_us", Unit: "us", Better: "lower", Moves: "query_p50_ms", On: "shape_wire_cold (key -> object)"},
	{Name: "metastore.lookup_key_ns", Unit: "ns", Better: "lower", Moves: "query_p50_ms", On: "shape_wire_*"},
	{Name: "metastore.disk_bytes_per_object", Unit: "B", Better: "lower", Moves: "setup_s", On: "all"},

	{Name: "protocol.encode_query_ns", Unit: "ns", Better: "lower", Moves: "qps, query_p50_ms", On: "shape_wire_hot, then shape_wire_cold"},
	{Name: "protocol.decode_response_ns", Unit: "ns", Better: "lower", Moves: "qps, query_p50_ms", On: "shape_wire_hot, then shape_wire_cold"},
	{Name: "protocol.response_bytes", Unit: "B", Better: "lower", Moves: "qps", On: "shape_wire_hot"},

	{Name: "server.ping_rtt_us", Unit: "us", Better: "lower", Moves: "query_p50_ms", On: "shape_wire_hot"},
	{Name: "server.wire_overhead_us", Unit: "us", Better: "lower", Moves: "query_p50_ms, qps", On: "shape_wire_cold"},
	{Name: "server.parse_us", Unit: "us", Better: "lower", Moves: "query_p50_ms", On: "shape_wire_* (text protocol only; v2 records no parse span)"},
	{Name: "server.write_us", Unit: "us", Better: "lower", Moves: "query_p50_ms", On: "shape_wire_*"},
	{Name: "server.bytes_written_per_query", Unit: "B", Better: "lower", Moves: "qps", On: "shape_wire_*"},
	{Name: "server.wirebuf_miss_frac", Unit: "ratio", Better: "lower", Moves: "qps, bench.client_p95_ms", On: "shape_wire_*"},

	{Name: "telemetry.trace_overhead_frac", Unit: "ratio", Better: "lower", Moves: "qps", On: "every workload"},

	{Name: "bench.bulk_ingest_obj_s", Unit: "obj/s", Better: "higher", Moves: "setup_s; gated as part of it, because its own spread is not exempt from the acceptance rule as setup_s's is", On: "all"},
	{Name: "bench.client_p95_ms", Unit: "ms", Better: "lower", Moves: "the tail users see; too noisy on this sandbox to gate", On: "all"},
	{Name: "bench.client_p99_ms", Unit: "ms", Better: "lower", Moves: "diagnostic tail, too noisy to gate", On: "all"},
	{Name: "bench.client_p999_ms", Unit: "ms", Better: "lower", Moves: "diagnostic tail", On: "all"},
	{Name: "bench.client_max_ms", Unit: "ms", Better: "lower", Moves: "diagnostic tail", On: "all"},
	{Name: "bench.write_p95_ms", Unit: "ms", Better: "lower", Moves: "diagnostic tail", On: "shape_rw"},
	{Name: "bench.write_p99_ms", Unit: "ms", Better: "lower", Moves: "diagnostic tail", On: "shape_rw"},
	{Name: "bench.sched_lag_p99_ms", Unit: "ms", Better: "lower", Moves: "validity of write_p50_ms", On: "shape_rw"},
	{Name: "bench.unattributed_frac", Unit: "ratio", Better: "lower", Moves: "ROADMAP item 1 wants < 0.10; reported, not gated", On: "all"},
	{Name: "bench.gc_cycles", Unit: "count", Better: "lower", Moves: "explains bench.client_p95_ms", On: "all"},
	{Name: "bench.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "explains bench.client_p95_ms", On: "all"},
}
