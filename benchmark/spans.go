package main

import (
	"cmp"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"time"

	"ferret/internal/telemetry/trace"
)

// Span recording for the traced run. The benchmark adds no spans inside the
// program: it wraps each request in a client span of its own and hangs the
// spans the engine's tracer already retains for a forced trace (sketch,
// filter, hindex_probe, hindex_verify, rank, cache, parse, write) under it.
// The tracer parents every span on its root, so nesting (filter around the
// two hindex spans) is recovered from interval containment. A span's self
// time is its duration minus the part its children cover; time no named
// stage accounts for is the self time of the client span plus that of the
// engine's root span.

const (
	spanClient = "client"
	spanEngine = "engine"
)

// span is one record of the -trace-out file.
type span struct {
	Req    int64  `json:"req"`    // request id: spans of one request share it
	ID     int    `json:"id"`     // index within the request
	Parent int    `json:"parent"` // index of the causing span, -1 for the client span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// spanSink files the traced requests of the one load goroutine; no locking.
type spanSink struct {
	tracer *trace.Tracer
	epoch  time.Time
	keep   bool // retain span records for -trace-out

	spans   []span
	total   map[string]int64 // summed span durations by name, ns
	self    map[string]int64 // summed self times by name, ns
	wall    int64            // summed client span durations, ns
	n       int64            // requests with a retained trace
	missing int64            // requests whose trace the tracer no longer held
	kids    []trace.SpanData // scratch
	stack   []int            // scratch
}

func newSpanSink(tracer *trace.Tracer, keep bool) *spanSink {
	return &spanSink{tracer: tracer, epoch: time.Now(), keep: keep, total: map[string]int64{}, self: map[string]int64{}}
}

// overlap is how much of [a0, a1] lies inside [b0, b1].
func overlap(a0, a1, b0, b1 int64) int64 {
	return max(min(a1, b1)-max(a0, b0), 0)
}

// request files one traced request: client interval [t0, t1] and the hex ID
// of the trace the program retained for it.
func (s *spanSink) request(req int64, t0, t1 time.Time, idHex string) {
	id, err := trace.ParseTraceID(idHex)
	var tr *trace.Trace
	// Over the wire the server finishes (and publishes) the trace after it
	// has written the response, so the reply can overtake it briefly.
	for try := 0; err == nil && tr == nil && try < 8; try++ {
		if tr = s.tracer.Find(id); tr == nil {
			runtime.Gosched()
		}
	}
	if tr == nil {
		s.missing++
		return
	}
	s.n++
	c0, c1 := t0.Sub(s.epoch).Nanoseconds(), t1.Sub(s.epoch).Nanoseconds()
	s.wall += c1 - c0

	e0 := tr.Start.Sub(s.epoch).Nanoseconds()
	e1 := e0 + tr.Dur.Nanoseconds()
	s.total[spanClient] += c1 - c0
	s.self[spanClient] += c1 - c0 - overlap(e0, e1, c0, c1)
	s.total[spanEngine] += e1 - e0
	engineSelf := e1 - e0
	if s.keep {
		s.spans = append(s.spans,
			span{Req: req, ID: 0, Parent: -1, Name: spanClient, Start: c0, End: c1},
			span{Req: req, ID: 1, Parent: 0, Name: spanEngine, Start: e0, End: e1})
	}

	s.kids = append(s.kids[:0], tr.Spans[1:]...)
	kids := s.kids
	// By start, longest first, so a span follows the spans that enclose it.
	slices.SortFunc(kids, func(a, b trace.SpanData) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(b.Dur, a.Dur)
	})
	s.stack = s.stack[:0]
	for i := range kids {
		k0 := e0 + kids[i].Start.Nanoseconds()
		k1 := k0 + kids[i].Dur.Nanoseconds()
		// Pop every open span this one does not lie inside.
		for len(s.stack) > 0 {
			p := &kids[s.stack[len(s.stack)-1]]
			if p1 := e0 + (p.Start + p.Dur).Nanoseconds(); k1 <= p1 {
				break
			}
			s.stack = s.stack[:len(s.stack)-1]
		}
		parent := 1
		s.total[kids[i].Name] += k1 - k0
		s.self[kids[i].Name] += k1 - k0
		if len(s.stack) > 0 {
			pi := s.stack[len(s.stack)-1]
			parent = 2 + pi
			s.self[kids[pi].Name] -= k1 - k0
		} else {
			engineSelf -= overlap(k0, k1, e0, e1)
		}
		if s.keep {
			s.spans = append(s.spans, span{Req: req, ID: 2 + i, Parent: parent, Name: kids[i].Name, Start: k0, End: k1})
		}
		s.stack = append(s.stack, i)
	}
	if engineSelf < 0 {
		engineSelf = 0
	}
	s.self[spanEngine] += engineSelf
}

// perRequestUS is the mean duration of the named span per traced request.
func (s *spanSink) perRequestUS(name string) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total[name]) / float64(s.n) / 1e3
}

// unattributed is the share of client wall time no named stage covers.
func (s *spanSink) unattributed() float64 {
	if s.wall == 0 {
		return 0
	}
	return float64(s.self[spanClient]+s.self[spanEngine]) / float64(s.wall)
}

// write dumps the retained spans as one JSON array.
func (s *spanSink) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return json.NewEncoder(f).Encode(s.spans)
}
