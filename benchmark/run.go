package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig selects one run: a workload, a seed, untraced (end-to-end
// metrics) or traced (per-layer metrics).
type runConfig struct {
	spec     workloadSpec
	seed     int64
	sc       scale
	traced   bool
	strict   bool      // enforce the full-scale validity rules (seals, merges, write rate)
	traceOut string    // traced runs: write the span records here
	log      io.Writer // progress lines
}

// resultLine is the contract's result: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runResult is one run's outcome as the -out file keeps it.
type runResult struct {
	resultLine

	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    int            `json:"trace"`
	Seconds  float64        `json:"seconds"`
	Samples  map[string]int `json:"samples"`
	Invalid  []string       `json:"invalid,omitempty"`  // validity rules the run broke
	Failures []string       `json:"failures,omitempty"` // first few failed-operation reasons
}

func newResult(cfg runConfig) *runResult {
	r := &runResult{Workload: cfg.spec.Name, Seed: cfg.seed, Seconds: cfg.sc.window.Seconds(), Samples: map[string]int{}}
	if cfg.traced {
		r.Trace = 1
	}
	return r
}

// finish turns raw values into the declared metric set and settles the
// verdict: every operation succeeded and no validity rule was broken.
func (r *runResult) finish(specs []metricSpec, values map[string]float64, t tally) {
	r.Metrics = make(map[string]metricValue, len(specs))
	for _, s := range specs {
		r.Metrics[s.Name] = metricValue{Value: values[s.Name], Unit: s.Unit}
	}
	r.Attempted, r.Failed, r.Failures = t.attempted, t.failed, t.reasons
	if r.Attempted == 0 {
		r.Attempted = 1
		r.Failed = 1
	}
	r.Correct = r.Failed == 0 && len(r.Invalid) == 0
}

func (r *runResult) invalid(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

// cacheRules enforces what makes each workload the workload it claims to
// be: the cached one is served from the cache, the others never are.
func (r *runResult) cacheRules(spec workloadSpec, c0, c1 map[string]float64) (hitFrac float64) {
	hits := c1["ferret_result_cache_hits_total"] - c0["ferret_result_cache_hits_total"]
	misses := c1["ferret_result_cache_misses_total"] - c0["ferret_result_cache_misses_total"]
	if hits+misses > 0 {
		hitFrac = hits / (hits + misses)
	}
	switch {
	case spec.cache && hitFrac < 0.99:
		r.invalid("cache hit fraction %.4f < 0.99", hitFrac)
	case !spec.cache && hits > 0:
		r.invalid("%v cache hits with the cache off", hits)
	}
	return hitFrac
}

// writeRules enforces the shape_rw window: enough seals and a merge happened
// inside it, and the feed was not falling behind.
func (r *runResult) writeRules(c0, c1 map[string]float64, okOpsS float64) {
	if seals := c1["ferret_seal_total"] - c0["ferret_seal_total"]; seals < 4 {
		r.invalid("%v seals in the window, want >= 4", seals)
	}
	if merges := c1["ferret_merge_total"] - c0["ferret_merge_total"]; merges < 1 {
		r.invalid("%v merges in the window, want >= 1", merges)
	}
	if okOpsS < 0.98*writeRate {
		r.invalid("write_ok_ops_s %.1f < %.0f: the feed has a growing backlog", okOpsS, 0.98*writeRate)
	}
}

// runUntraced measures the end-to-end metrics: half of the set-ups; on the
// last of them the quality check, warm-up and the timed window with tracing
// off; then the other half. On the read-only workloads every fixture but the
// last takes a stretch of the write feed on its idle engine before it is torn
// down. Set-up time is taken piece by piece from the fastest of the repeats
// (see summarize for why).
func runUntraced(ctx context.Context, cfg runConfig) (res *runResult, err error) {
	res = newResult(cfg)
	sc, spec := cfg.sc, cfg.spec
	in := makeInputs(spec, cfg.seed, sc)
	fmt.Fprintf(cfg.log, "%s seed %d: inputs made (%d objects)\n", spec.Name, cfg.seed, len(in.objs))

	var t tally
	var fx *fixture
	var parts [][]float64
	var idleBest [2][idleObjects]float64 // fastest ingest and delete of each idle-feed object, ms
	// nextSetUp replaces the fixture by a fresh, timed set-up. On the
	// read-only workloads the outgoing fixture first takes the write feed on
	// its otherwise idle engine, so write metrics exist everywhere and the gap
	// to shape_rw is what the reader costs a write.
	nextSetUp := func() error {
		if fx != nil {
			if !spec.rw {
				w := writer{fx: fx}
				t.merge(w.runIdle(ctx, sc.idleFeed, &idleBest))
				w.verify(ctx, &t)
			}
			if err := fx.tearDown(); err != nil {
				return err
			}
		}
		if fx, err = setUp(in, sc); err != nil {
			return err
		}
		parts = append(parts, fx.parts)
		return nil
	}
	defer func() {
		if fx != nil {
			if terr := fx.tearDown(); err == nil {
				err = terr
			}
		}
	}()
	// Half of the set-ups come before the window and half after it, so that
	// the repeats each piece's fastest time is taken from span the whole run.
	setups := sc.pick(spec.image, sc.setups)
	for len(parts) < (setups+1)/2 {
		if err := nextSetUp(); err != nil {
			return nil, err
		}
	}
	v := map[string]float64{"heap_mb": heapMB()}

	cStart := counters(fx.eng)
	v["recall_at_20"] = recallAt20(ctx, fx, &t)
	d := newDriver(ctx, fx, sc, &t)

	d.run(ctx, phase{dur: sc.warmup, readers: true, writer: spec.rw})
	c0 := counters(fx.eng)
	win := d.run(ctx, phase{dur: sc.window, readers: true, writer: spec.rw})
	c1 := counters(fx.eng)
	d.w.verify(ctx, &t)
	t.merge(win.queries)
	t.merge(win.writes.outcome)
	cEnd := counters(fx.eng)

	for len(parts) < setups {
		if err := nextSetUp(); err != nil {
			return nil, err
		}
	}
	v["setup_s"] = sum(fastest(parts))
	fmt.Fprintf(cfg.log, "  set up %dx: fastest pieces %.3fs, whole set-ups median %.3fs, heap %.1f MB\n", setups, v["setup_s"], median(rowSums(parts)), v["heap_mb"])

	ls := summarize(win)
	fmt.Fprintf(cfg.log, "  window %v: %v\n", sc.window, ls)
	v["qps"], v["query_p50_ms"] = ls.qps, ls.p50
	res.Samples["query"], res.Samples["distinct_queries"] = ls.n, ls.distinct
	if spec.rw {
		writes := win.writes
		v["write_p50_ms"] = quietWriteP50(win, ls.best)
		v["write_ok_ops_s"] = float64(writes.inTime) / sc.window.Seconds()
		res.Samples["write"] = len(writes.latMS)
		fmt.Fprintf(cfg.log, "  writes: n=%d quiet-quarter p50=%.3fms | as it happened p50=%.3fms generator lag p50=%.3fms ingest service p50=%.1fus\n", len(writes.latMS), v["write_p50_ms"], median(writes.latMS), median(writes.lagMS), median(writes.svcUS))
	} else {
		// Best times, like the queries: the median ingest, and the rate one
		// writer would sustain on the feed's mix of nine ingests to a delete.
		ingest, del := idleBest[0][:], idleBest[1][:]
		v["write_p50_ms"] = median(ingest)
		v["write_ok_ops_s"] = 1e3 / (0.9*mean(ingest) + 0.1*mean(del))
		res.Samples["write"] = idleObjects
		fmt.Fprintf(cfg.log, "  idle writes: best-time ingest p50=%.4fms delete p50=%.4fms\n", v["write_p50_ms"], median(del))
	}

	if spec.cache {
		res.cacheRules(spec, c0, c1)
	} else {
		res.cacheRules(spec, cStart, cEnd)
	}
	if spec.rw && cfg.strict {
		res.writeRules(c0, c1, v["write_ok_ops_s"])
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	v["ok_frac"] = 1 - float64(t.failed)/float64(max(t.attempted, 1))
	res.finish(endToEnd, v, t)
	return res, nil
}

func rowSums(rows [][]float64) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = sum(r)
	}
	return out
}

// runTraced measures the per-layer metrics on one set-up: the counted
// single-goroutine pass, an untraced and a fully traced stretch of the
// workload's load (their throughput ratio is the tracing overhead), the idle
// wire measurements, the leaf-package and store microbenchmarks, and the
// engine write path with no reader.
func runTraced(ctx context.Context, cfg runConfig) (res *runResult, err error) {
	res = newResult(cfg)
	sc, spec := cfg.sc, cfg.spec
	in := makeInputs(spec, cfg.seed, sc)
	fx, err := setUp(in, sc)
	if err != nil {
		return nil, err
	}
	defer func() {
		if terr := fx.tearDown(); err == nil {
			err = terr
		}
	}()
	v := map[string]float64{"bench.bulk_ingest_obj_s": fx.ingestObjS}
	var t tally

	d := newDriver(ctx, fx, sc, &t)
	if err := countedPass(ctx, fx, sc.pick(spec.image, sc.counted), v); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "%s seed %d: counted pass done, search %.1f us\n", spec.Name, cfg.seed, v["core.search_us"])

	d.run(ctx, phase{dur: sc.warmup, readers: true, writer: spec.rw})
	stretch := sc.window * 3 / 10
	wire0, err := wireCounters(fx)
	if err != nil {
		return nil, err
	}
	c0 := counters(fx.eng)
	var g0, g1 runtime.MemStats
	runtime.ReadMemStats(&g0)
	plain := d.run(ctx, phase{dur: stretch, readers: true, writer: spec.rw})
	runtime.ReadMemStats(&g1)
	sink := newSpanSink(fx.eng.Tracer(), cfg.traceOut != "")
	traced := d.run(ctx, phase{dur: stretch, readers: true, writer: spec.rw, sink: sink})
	c1 := counters(fx.eng)
	wire1, err := wireCounters(fx)
	if err != nil {
		return nil, err
	}
	d.w.verify(ctx, &t)
	for _, ph := range []phaseResult{plain, traced} {
		t.merge(ph.queries)
		t.merge(ph.writes.outcome)
	}

	ps, ts := summarize(plain), summarize(traced)
	fmt.Fprintf(cfg.log, "  untraced %v: %v\n  traced   %v: %v\n", stretch, ps, stretch, ts)
	res.Samples["query"], res.Samples["traced_query"] = ps.n, ts.n
	v["bench.client_p95_ms"] = ps.p95
	v["bench.client_p99_ms"], v["bench.client_p999_ms"], v["bench.client_max_ms"] = ps.p99, ps.p999, ps.maxMS
	v["bench.gc_cycles"] = float64(g1.NumGC - g0.NumGC)
	v["bench.gc_pause_ms"] = float64(g1.PauseTotalNs-g0.PauseTotalNs) / 1e6
	if ps.n > 0 {
		// The stretches are equally long, so the counts compare directly.
		v["telemetry.trace_overhead_frac"] = 1 - float64(ts.n)/float64(ps.n)
	}
	res.Samples["traces_missing"] = int(sink.missing)
	v["bench.unattributed_frac"] = sink.unattributed()
	v["core.sketch_us"] = sink.perRequestUS("sketch")
	v["core.filter_us"] = sink.perRequestUS("filter")
	v["core.rank_us"] = sink.perRequestUS("rank")
	v["core.queue_wait_us"] = sink.perRequestUS("queue")
	v["server.write_us"] = sink.perRequestUS("write")

	v["core.cache_hit_frac"] = res.cacheRules(spec, c0, c1)
	v["core.cache_invalidations"] = c1["ferret_result_cache_invalidated_total"] - c0["ferret_result_cache_invalidated_total"]
	v["core.seals"] = c1["ferret_seal_total"] - c0["ferret_seal_total"]
	v["core.merges"] = c1["ferret_merge_total"] - c0["ferret_merge_total"]
	v["core.segments_end"] = c1["ferret_storage_segments"]
	if spec.rw {
		both := append(append([]float64(nil), plain.writes.latMS...), traced.writes.latMS...)
		sort.Float64s(both)
		v["bench.write_p95_ms"], v["bench.write_p99_ms"] = percentile(both, 0.95), percentile(both, 0.99)
		lag := append(append([]float64(nil), plain.writes.lagMS...), traced.writes.lagMS...)
		sort.Float64s(lag)
		v["bench.sched_lag_p99_ms"] = percentile(lag, 0.99)
		res.Samples["write"] = len(both)
	}
	if spec.wire {
		queries := float64(plain.queries.attempted + traced.queries.attempted)
		v["server.bytes_written_per_query"] = (wire1["ferret_server_written_bytes_total"] - wire0["ferret_server_written_bytes_total"]) / queries
		if gets := wire1["ferret_wire_buf_gets_total"] - wire0["ferret_wire_buf_gets_total"]; gets > 0 {
			v["server.wirebuf_miss_frac"] = (wire1["ferret_wire_buf_misses_total"] - wire0["ferret_wire_buf_misses_total"]) / gets
		}
		if err := wireLayers(ctx, fx, sc, v["core.search_us"], v); err != nil {
			return nil, err
		}
	}

	leafLayers(in, sc, fx.eng.Builder(), v)
	if err := storeLayers(in, sc, fx.eng.Builder(), v); err != nil {
		return nil, err
	}
	if err := writeLayers(fx, d.w.next, v); err != nil {
		return nil, err
	}
	if spec.rw {
		// What a queued ingest waits for beside the reader, over what the
		// same ingest costs alone.
		v["core.write_wait_us"] = median(append(plain.writes.svcUS, traced.writes.svcUS...)) - v["core.ingest_us"]
	}
	if cfg.traceOut != "" {
		if err := sink.write(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	res.finish(perLayer, v, t)
	return res, nil
}

// wireCounters reads the serving layer's counters the way an operator
// would, with TELEMETRY over the control connection (which also refreshes
// the wire-buffer pool gauges). nil on the in-process workloads.
func wireCounters(fx *fixture) (map[string]float64, error) {
	if fx.ctl == nil {
		return nil, nil
	}
	pairs, err := fx.ctl.Telemetry()
	if err != nil {
		return nil, fmt.Errorf("TELEMETRY: %w", err)
	}
	out := make(map[string]float64, len(pairs))
	for k, s := range pairs {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			out[k] = f
		}
	}
	return out, nil
}
