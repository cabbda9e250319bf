package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"ferret/internal/core"
	"ferret/internal/object"
	"ferret/internal/protocol"
)

// Load generation. Queries are a closed loop — ferret-query, the web UI and
// evaltool each wait for a reply before sending again — from one goroutine:
// the sandbox's second core comes and goes (two busy threads at times get one
// core between them), so one client, whose server side runs while it waits,
// is the most load that measures the program and not the host's scheduler.
// The acquisition feed is the one schedule-driven actor in the system, so the
// writer is an open loop: every operation is timed from the instant it was
// due, whether or not the generator or the engine kept up, and the
// generator's own lateness is reported beside it.

// driver carries what survives from one phase of a run to the next: where
// the reader is in the query order, and the writer's stream position.
type driver struct {
	fx     *fixture
	sc     scale
	refs   map[string][]core.Result // in-process answers wire answers must equal
	cursor int
	w      writer
}

// newDriver readies a fixture for load. For a wire workload it first takes
// the in-process reference answers (all 16 hot keys, or a 50-key sample) and
// requires the wire to return exactly those.
func newDriver(ctx context.Context, fx *fixture, sc scale, t *tally) *driver {
	d := &driver{fx: fx, sc: sc, w: writer{fx: fx}}
	if fx.in.spec.wire {
		sample := 50
		if fx.in.spec.hot {
			sample = hotKeys
		}
		d.refs = references(ctx, fx, sample, t)
		wireMatchesEngine(fx, d.refs, t)
	}
	return d
}

// phase is one stretch of load.
type phase struct {
	dur     time.Duration
	readers bool
	writer  bool
	sink    *spanSink // non-nil: every query asks the program for its trace
}

// phaseResult holds one phase's raw samples.
type phaseResult struct {
	secs    float64
	samples []querySample
	queries tally
	writes  writeSamples
}

// querySample is one correct answer: which of the distinct queries it was,
// when in the phase it completed, and its client-side latency.
type querySample struct {
	query int
	atNS  int64
	latNS int64
}

func (d *driver) run(ctx context.Context, ph phase) phaseResult {
	res := phaseResult{secs: ph.dur.Seconds()}
	start := time.Now()
	end := start.Add(ph.dur)
	var wg sync.WaitGroup
	if ph.readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.samples = d.readLoop(ctx, start, end, ph.sink, &res.queries)
		}()
	}
	if ph.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.writes = d.w.run(ctx, start, end)
		}()
	}
	wg.Wait()
	return res
}

// readLoop is the closed-loop client: it cycles through the distinct queries
// in order, continuing where the previous phase stopped, and keeps the
// answers that complete before end.
func (d *driver) readLoop(ctx context.Context, start, end time.Time, sink *spanSink, t *tally) (samples []querySample) {
	in := d.fx.in
	opt := core.QueryOptions{K: resultK, ForceTrace: sink != nil}
	params := protocol.QueryParams{K: resultK, Trace: sink != nil}
	for ctx.Err() == nil {
		i := d.cursor
		d.cursor++
		var reason, traceID string
		t0 := time.Now()
		if !t0.Before(end) {
			break
		}
		var t1 time.Time
		if in.spec.wire {
			i %= len(in.keys)
			key := in.keys[i]
			rs, meta, err := d.fx.client.QueryMeta(key, params)
			t1 = time.Now()
			switch {
			case err != nil:
				reason = "wire query: " + err.Error()
			default:
				traceID = meta.TraceID
				if reason = checkWire(rs, resultK, key); reason == "" {
					if want, ok := d.refs[key]; ok {
						reason = sameAnswer(rs, want)
					} else if in.spec.hot {
						reason = "hot key " + key + " has no uncached reference answer"
					}
				}
			}
		} else {
			i %= len(in.queries)
			ans, err := d.fx.eng.Search(ctx, in.queries[i], opt)
			t1 = time.Now()
			switch {
			case err != nil:
				reason = "search: " + err.Error()
			case ans.Degraded:
				reason = "degraded answer without a budget"
			default:
				if ans.Trace != nil {
					traceID = ans.Trace.ID
				}
				reason = checkCore(ans.Results, resultK, "")
			}
		}
		t.note(reason)
		if reason != "" || t1.After(end) {
			continue
		}
		samples = append(samples, querySample{query: i, atNS: t1.Sub(start).Nanoseconds(), latNS: t1.Sub(t0).Nanoseconds()})
		if sink != nil {
			sink.request(int64(d.cursor-1), t0, t1, traceID)
		}
	}
	return samples
}

// writer is the open-loop acquisition feed: writeRate operations a second,
// every tenth a Delete of an object it streamed at least a second earlier,
// the rest IngestQueued of fresh objects.
type writer struct {
	fx   *fixture
	next int // stream position
	ops  int // operations issued so far
	live []streamed
	head int // oldest not-yet-deleted entry of live
	gone []int
}

type streamed struct {
	id    object.ID
	idx   int // position in inputs.stream
	acked time.Time
}

// writeSamples are one phase's write observations.
type writeSamples struct {
	dueNS   []int64   // due time since the phase began
	latMS   []float64 // ack - due
	lagMS   []float64 // send - due: how late the generator ran
	svcUS   []float64 // ack - send, ingests only
	inTime  int       // acknowledged before the phase ended
	outcome tally
}

func (w *writer) run(ctx context.Context, start, end time.Time) writeSamples {
	var s writeSamples
	stream := w.fx.in.stream
	for k := 0; ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(float64(k) / writeRate * float64(time.Second)))
		if !due.Before(end) {
			break
		}
		pace(due)
		w.ops++
		del := w.ops%10 == 0 && w.head < len(w.live) && time.Since(w.live[w.head].acked) >= time.Second
		send := time.Now()
		var err error
		if del {
			err = w.fx.eng.Delete(w.live[w.head].id)
		} else {
			if w.next >= len(stream) {
				s.outcome.note("writer ran out of stream objects")
				break
			}
			var id object.ID
			id, err = w.fx.eng.IngestQueued(ctx, stream[w.next], nil)
			if err == nil {
				w.live = append(w.live, streamed{id: id, idx: w.next})
			}
			w.next++
		}
		ack := time.Now()
		if err != nil {
			s.outcome.note("write: " + err.Error())
			continue
		}
		s.outcome.note("")
		if del {
			w.gone = append(w.gone, w.live[w.head].idx)
			w.head++
		} else {
			w.live[len(w.live)-1].acked = ack
			s.svcUS = append(s.svcUS, float64(ack.Sub(send).Nanoseconds())/1e3)
		}
		if !ack.After(end) {
			s.inTime++
		}
		s.dueNS = append(s.dueNS, due.Sub(start).Nanoseconds())
		s.latMS = append(s.latMS, float64(ack.Sub(due).Nanoseconds())/1e6)
		s.lagMS = append(s.lagMS, float64(send.Sub(due).Nanoseconds())/1e6)
	}
	return s
}

// idleObjects is how many of the feed's objects runIdle cycles through.
const idleObjects = 24

// runIdle is the feed on the read-only workloads, where it has the engine to
// itself: for dur it ingests the feed's first idleObjects objects back to
// back, deletes them, and ingests them again. A lone write every 3.3 ms, as
// the paced feed issues them, starts from whatever the sandbox's neighbours
// left in the caches and moved 15-30% between identical runs whichever way it
// was summarized; run back to back, each object's ingest and delete repeats
// some hundred times and its fastest repeats within a few percent. best holds
// those fastest times in ms, ingests then deletes, and is updated in place.
func (w *writer) runIdle(ctx context.Context, dur time.Duration, best *[2][idleObjects]float64) (outcome tally) {
	stream := w.fx.in.stream[:idleObjects]
	timed := func(kind, j int, op func() error) bool {
		t0 := time.Now()
		err := op()
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			outcome.note("write: " + err.Error())
			return false
		}
		outcome.note("")
		if b := best[kind][j]; !(b > 0) || ms < b { // 0: not yet timed
			best[kind][j] = ms
		}
		return true
	}
	for end := time.Now().Add(dur); ctx.Err() == nil && time.Now().Before(end); {
		for j := range stream {
			if timed(0, j, func() (err error) {
				var id object.ID
				if id, err = w.fx.eng.IngestQueued(ctx, stream[j], nil); err == nil {
					w.live = append(w.live, streamed{id: id, idx: j})
				}
				return err
			}) && len(w.gone) > 0 {
				w.gone = w.gone[1:]
			}
		}
		if !time.Now().Before(end) {
			break // leave the last round ingested, for verify
		}
		for ; w.head < len(w.live); w.head++ {
			l := w.live[w.head]
			if timed(1, l.idx, func() error { return w.fx.eng.Delete(l.id) }) {
				w.gone = append(w.gone, l.idx)
			}
		}
	}
	return outcome
}

// pace returns at the instant due. time.Sleep alone lands on a ~1 ms timer
// grid on the sandbox (a 100 us sleep takes 1.1 ms), which would put most of
// a millisecond of generator lateness into every write latency; so it sleeps
// to within sleepSlack of due and yields the processor in a loop for the rest.
func pace(due time.Time) {
	const sleepSlack = 1200 * time.Microsecond
	if wait := time.Until(due) - sleepSlack; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// verify checks, once the load has stopped, that the feed's effects hold: a
// sample of acknowledged ingests is found first at distance 0 by its own
// vector, and a sample of acknowledged deletes is gone from both the key
// table and the answers.
func (w *writer) verify(ctx context.Context, t *tally) {
	const sample = 50
	stream := w.fx.in.stream
	step := func(n int) int {
		if n <= sample {
			return 1
		}
		return n / sample
	}
	for i := w.head; i < len(w.live); i += step(len(w.live) - w.head) {
		o := stream[w.live[i].idx]
		ans, err := w.fx.eng.Search(ctx, o, core.QueryOptions{K: resultK})
		if err != nil {
			t.note("verify ingest: " + err.Error())
			continue
		}
		t.note(checkCore(ans.Results, resultK, o.Key))
	}
	for i := 0; i < len(w.gone); i += step(len(w.gone)) {
		o := stream[w.gone[i]]
		if _, ok := w.fx.eng.Meta().LookupKey(o.Key); ok {
			t.note("deleted key " + o.Key + " still resolves")
			continue
		}
		ans, err := w.fx.eng.Search(ctx, o, core.QueryOptions{K: resultK})
		if err != nil {
			t.note("verify delete: " + err.Error())
			continue
		}
		reason := ""
		for _, r := range ans.Results {
			if r.Key == o.Key {
				reason = "deleted key " + o.Key + " still answers"
			}
		}
		t.note(reason)
	}
}

// latencySummary is what a phase's query samples reduce to.
type latencySummary struct {
	n, distinct int
	best        map[int]float64 // each distinct query's best time, ms
	// From each distinct query's best time: the median of those, and the
	// rate at which one closed-loop client would get through them.
	p50, qps float64
	// From every sample, as it happened.
	rawQPS, rawP50, p95, p99, p999, maxMS float64
}

// summarize reduces the query samples of a phase. The sandbox slows down by
// 20-60% for seconds to minutes at a time (a neighbour on the host's cache
// and memory, to judge by an arithmetic loop that keeps its speed meanwhile),
// so a median over everything that happened measures the neighbour. Quiet
// spells recur within every window, and each distinct query runs often enough
// to meet one, so the gated numbers are built from each query's best time;
// the raw figures go to the log and the per-layer tail metrics.
func summarize(res phaseResult) latencySummary {
	byQuery := map[int][]float64{} // in order of execution
	all := make([]float64, len(res.samples))
	for i, s := range res.samples {
		all[i] = float64(s.latNS) / 1e6
		byQuery[s.query] = append(byQuery[s.query], all[i])
	}
	best := make(map[int]float64, len(byQuery))
	floors := make([]float64, 0, len(byQuery))
	for q, ms := range byQuery {
		best[q] = bestTime(ms)
		floors = append(floors, best[q])
	}
	sort.Float64s(all)
	s := latencySummary{
		n: len(all), distinct: len(floors), best: best,
		p50:    median(floors),
		rawQPS: float64(len(all)) / res.secs, rawP50: percentile(all, 0.50),
		p95: percentile(all, 0.95), p99: percentile(all, 0.99), p999: percentile(all, 0.999),
	}
	if len(all) > 0 {
		s.qps = 1e3 / mean(floors)
		s.maxMS = all[len(all)-1]
	}
	return s
}

// bestTime is one query's best time over its executions in order: the fastest
// of them, up to a few hundred. The fastest of the cached workload's 50 000
// executions per key is an extreme value instead: it came out a fifth below
// its usual 13.9 us in two runs of ten on a day when the median of all
// executions held to 1%. So beyond 256 executions they count in blocks of up
// to 64 consecutive ones (at least 256 blocks), a block with its median, and
// the best time is the fastest block's: the query's usual time over its
// quietest few milliseconds.
func bestTime(ms []float64) float64 {
	block := min(max(len(ms)/256, 1), 64)
	best := math.Inf(1)
	for i := 0; i+block <= len(ms); i += block {
		v := ms[i]
		if block > 1 {
			v = median(ms[i : i+block])
		}
		best = min(best, v)
	}
	return best
}

func (s latencySummary) String() string {
	return fmt.Sprintf("n=%d over %d distinct: best-time qps=%.1f p50=%.4fms | as it happened qps=%.1f p50=%.4fms p95=%.4fms p99=%.3fms max=%.3fms",
		s.n, s.distinct, s.qps, s.p50, s.rawQPS, s.rawP50, s.p95, s.p99, s.maxMS)
}

// quietWriteP50 is the feed's median latency (ack - due) over the quietest
// quarter of the phase. Beside the reader a write mostly waits for the query
// in flight, so no write repeats and there is no fastest repeat to take; but
// the reader tells how quiet the sandbox was at each moment. The phase is cut
// into quarter-second slices, a slice's slowdown is the median over its
// queries of latency over that query's best time, and the writes that fell
// due in the quarter of the slices with the least slowdown are the ones
// counted.
func quietWriteP50(res phaseResult, best map[int]float64) float64 {
	const width = int64(250 * time.Millisecond)
	slices := int(int64(res.secs*1e9)/width) + 1
	ratios := make([][]float64, slices)
	for _, s := range res.samples {
		if i := int(s.atNS / width); i < slices {
			ratios[i] = append(ratios[i], float64(s.latNS)/1e6/best[s.query])
		}
	}
	slow := make([]float64, slices)
	var known []float64
	for i, r := range ratios {
		slow[i] = math.Inf(1)
		if len(r) >= 8 {
			slow[i] = median(r)
			known = append(known, slow[i])
		}
	}
	if len(known) == 0 {
		return median(res.writes.latMS)
	}
	sort.Float64s(known)
	limit := percentile(known, 0.25)
	var quiet []float64
	for k, due := range res.writes.dueNS {
		if i := int(due / width); i < slices && slow[i] <= limit {
			quiet = append(quiet, res.writes.latMS[k])
		}
	}
	return median(quiet)
}
