package core

import (
	"ferret/internal/sketch"
	"ferret/internal/telemetry"
	"ferret/internal/telemetry/trace"
)

// Query pipeline stage labels, as exposed in
// ferret_query_stage_seconds{stage="..."}. The stages mirror the paper's
// query pipeline (§4.1.1): sketch construction for the query object, the
// filtering unit (sketch scan or the exact-distance alternative), and the
// ranking unit.
const (
	StageSketch      = "sketch"
	StageFilter      = "filter"
	StageExactFilter = "exact_filter"
	StageRank        = "rank"

	// Trace-only span names (no stage histogram of their own): the
	// Hamming-index spans split an indexed filter stage into its bucket
	// descent and its candidate verification, so /debug/traces shows
	// probe-vs-verify time directly.
	StageHProbe  = "hindex_probe"
	StageHVerify = "hindex_verify"

	// StageCache is the result-cache lookup on a served hit — the whole
	// pipeline collapses into this one span.
	StageCache = "cache"
)

// engineMetrics are the engine's handles into its telemetry registry. All
// hot-path updates are atomic increments; filter and rank loops accumulate
// into locals and publish once per stage, so concurrent queries never
// contend on a shared cache line per object.
type engineMetrics struct {
	reg *telemetry.Registry

	// Operation counters.
	queries     *telemetry.Counter // ferret_query_total
	queryErrors *telemetry.Counter // ferret_query_errors_total
	degraded    *telemetry.Counter // ferret_queries_degraded_total
	ingests     *telemetry.Counter // ferret_ingest_total
	deletes     *telemetry.Counter // ferret_delete_total
	compacts    *telemetry.Counter // ferret_compact_total

	// Segmented-ingest counters (see segment.go / compactor.go).
	seals          *telemetry.Counter // ferret_seal_total
	merges         *telemetry.Counter // ferret_merge_total
	ingestRejected *telemetry.Counter // ferret_ingest_rejected_total

	// Pipeline counters (per-stage attribution of work done).
	scanned      *telemetry.Counter // ferret_filter_objects_scanned_total
	candidates   *telemetry.Counter // ferret_filter_candidates_total
	emdEvals     *telemetry.Counter // ferret_rank_distance_evals_total
	emdPruned    *telemetry.Counter // ferret_rank_emd_pruned_total
	emdAbandoned *telemetry.Counter // ferret_rank_emd_abandoned_total
	heapTrims    *telemetry.Counter // ferret_rank_heap_trims_total

	// Hamming-index counters (see probe.go): candidates/baseline is the
	// candidate-reduction ratio STATS reports — rows verified per row an
	// unindexed scan would have streamed, over all probe attempts.
	hixProbes     *telemetry.Counter // ferret_hindex_probes_total
	hixCandidates *telemetry.Counter // ferret_hindex_candidates_total
	hixFallback   *telemetry.Counter // ferret_hindex_fallback_total
	hixBaseline   *telemetry.Counter // ferret_hindex_baseline_rows_total
	hixLookups    *telemetry.Counter // ferret_hindex_lookups_total

	// Result-cache counters and gauges (see cache.go).
	cacheHits        *telemetry.Counter // ferret_result_cache_hits_total
	cacheMisses      *telemetry.Counter // ferret_result_cache_misses_total
	cacheInvalidated *telemetry.Counter // ferret_result_cache_invalidated_total
	cacheEvictions   *telemetry.Counter // ferret_result_cache_evictions_total
	cacheCoalesced   *telemetry.Counter // ferret_result_cache_coalesced_total
	cacheEntries     *telemetry.Gauge   // ferret_result_cache_entries
	cacheBytes       *telemetry.Gauge   // ferret_result_cache_bytes

	// View publication (see segment.go): how long writers queue for the
	// writer mutex, and how many views they published.
	writeWait     *telemetry.Histogram // ferret_write_wait_seconds
	viewPublishes *telemetry.Counter   // ferret_view_publish_total

	// State gauges — maintained incrementally by the writers so Stat() never
	// has to walk the sketch database.
	objects     *telemetry.Gauge // ferret_objects
	deleted     *telemetry.Gauge // ferret_deleted_objects
	segments    *telemetry.Gauge // ferret_segments
	storageSegs *telemetry.Gauge // ferret_storage_segments
	queueDepth  *telemetry.Gauge // ferret_ingest_queue_depth
	inflight    *telemetry.Gauge // ferret_inflight_queries

	// Latency histograms.
	queryTime   *telemetry.Histogram // ferret_query_seconds
	ingestTime  *telemetry.Histogram // ferret_ingest_seconds
	stageSketch *telemetry.Histogram // ferret_query_stage_seconds{stage="sketch"}
	stageFilter *telemetry.Histogram // ferret_query_stage_seconds{stage="filter"}
	stageExact  *telemetry.Histogram // ferret_query_stage_seconds{stage="exact_filter"}
	stageRank   *telemetry.Histogram // ferret_query_stage_seconds{stage="rank"}
}

func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	telemetry.RegisterBuildInfo(reg)
	// Pipeline stages sit well under a millisecond, so every latency
	// histogram here uses the fine grid.
	stageHist := func(stage string) *telemetry.Histogram {
		return reg.Histogram("ferret_query_stage_seconds",
			"Per-stage query pipeline latency in seconds.", telemetry.FineTimeBuckets, "stage", stage)
	}
	return &engineMetrics{
		reg: reg,

		queries:     reg.Counter("ferret_query_total", "Similarity queries served."),
		queryErrors: reg.Counter("ferret_query_errors_total", "Similarity queries that failed."),
		degraded: reg.Counter("ferret_queries_degraded_total",
			"Queries whose time budget expired mid-rank and returned sketch-order results."),
		ingests:  reg.Counter("ferret_ingest_total", "Objects ingested."),
		deletes:  reg.Counter("ferret_delete_total", "Objects deleted."),
		compacts: reg.Counter("ferret_compact_total", "Tombstone compactions run."),

		seals:  reg.Counter("ferret_seal_total", "Mutable tail segments sealed."),
		merges: reg.Counter("ferret_merge_total", "Background segment merges completed."),
		ingestRejected: reg.Counter("ferret_ingest_rejected_total",
			"Ingests rejected up front (poisoned store or shed by the bounded ingest queue)."),

		scanned:    reg.Counter("ferret_filter_objects_scanned_total", "Live objects visited by the filtering unit."),
		candidates: reg.Counter("ferret_filter_candidates_total", "Candidate objects surviving the filter stage."),
		emdEvals:   reg.Counter("ferret_rank_distance_evals_total", "Object-distance (EMD) evaluations in the ranking unit."),
		emdPruned: reg.Counter("ferret_rank_emd_pruned_total",
			"Candidates skipped by the sketch lower-bound prune (no object-distance evaluation)."),
		emdAbandoned: reg.Counter("ferret_rank_emd_abandoned_total",
			"EMD evaluations abandoned early by the exact-cost lower bound."),
		heapTrims: reg.Counter("ferret_rank_heap_trims_total", "Top-K heap evictions while ranking."),

		hixProbes: reg.Counter("ferret_hindex_probes_total",
			"Hamming-index descents, one per (query segment, sealed storage segment) a query offered to the index."),
		hixCandidates: reg.Counter("ferret_hindex_candidates_total",
			"Candidate rows streamed out of Hamming-index buckets for verification."),
		hixFallback: reg.Counter("ferret_hindex_fallback_total",
			"Index descents that fell back to the arena scan (they had cost as much as the sweep would)."),
		hixBaseline: reg.Counter("ferret_hindex_baseline_rows_total",
			"Indexed rows an unindexed scan would have streamed for the probed segments (candidate-ratio denominator)."),
		hixLookups: reg.Counter("ferret_hindex_lookups_total",
			"Bucket look-ups made by Hamming-index descents (substring-neighbourhood keys over all tables, segments and steps)."),

		cacheHits:   reg.Counter("ferret_result_cache_hits_total", "Queries served from the result cache."),
		cacheMisses: reg.Counter("ferret_result_cache_misses_total", "Cacheable queries that missed the result cache."),
		cacheInvalidated: reg.Counter("ferret_result_cache_invalidated_total",
			"Result-cache entries dropped on lookup because a newer view had been published."),
		cacheEvictions: reg.Counter("ferret_result_cache_evictions_total",
			"Result-cache entries evicted by the LRU capacity bounds."),
		cacheCoalesced: reg.Counter("ferret_result_cache_coalesced_total",
			"Queries that shared a concurrent identical query's computation (single-flight)."),
		cacheEntries: reg.Gauge("ferret_result_cache_entries", "Result-cache entries resident."),
		cacheBytes:   reg.Gauge("ferret_result_cache_bytes", "Approximate result-cache resident bytes."),

		writeWait: reg.Histogram("ferret_write_wait_seconds",
			"Time an ingest, delete or merge swap waited for the engine's writer mutex.", telemetry.FineTimeBuckets),
		viewPublishes: reg.Counter("ferret_view_publish_total",
			"Read-state views published (one per ingest, delete and merge swap)."),

		objects:     reg.Gauge("ferret_objects", "Live (non-deleted) objects."),
		deleted:     reg.Gauge("ferret_deleted_objects", "Tombstoned objects awaiting compaction."),
		segments:    reg.Gauge("ferret_segments", "Live segment sketches."),
		storageSegs: reg.Gauge("ferret_storage_segments", "Storage segments (sealed + mutable tail)."),
		queueDepth:  reg.Gauge("ferret_ingest_queue_depth", "Objects waiting in the bounded ingest queue."),
		inflight:    reg.Gauge("ferret_inflight_queries", "Queries currently executing."),

		queryTime:   reg.Histogram("ferret_query_seconds", "End-to-end query latency in seconds.", telemetry.FineTimeBuckets),
		ingestTime:  reg.Histogram("ferret_ingest_seconds", "Ingest latency in seconds.", nil),
		stageSketch: stageHist(StageSketch),
		stageFilter: stageHist(StageFilter),
		stageExact:  stageHist(StageExactFilter),
		stageRank:   stageHist(StageRank),
	}
}

// stage returns the histogram for one pipeline stage label.
func (m *engineMetrics) stage(name string) *telemetry.Histogram {
	switch name {
	case StageSketch:
		return m.stageSketch
	case StageFilter:
		return m.stageFilter
	case StageExactFilter:
		return m.stageExact
	default:
		return m.stageRank
	}
}

// Telemetry exposes the engine's metric registry, the feed for the server's
// STATS/TELEMETRY commands and the binaries' /metrics endpoints.
func (e *Engine) Telemetry() *telemetry.Registry { return e.met.reg }

// Tracer exposes the engine's query tracer (nil when Config.Trace.Disable
// is set) — the feed for the TRACE command and /debug/traces.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// sketchBytesOf converts a live-segment count into in-memory sketch bytes.
func (e *Engine) sketchBytesOf(segments int) int {
	return segments * sketch.Words(e.builder.N()) * 8
}
