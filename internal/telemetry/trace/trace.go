// Package trace is the toolkit's zero-dependency span tracer: per-query
// pipeline traces with sampling retention and an always-on slow-query log.
//
// Aggregate metrics (package telemetry) answer "how slow are queries?";
// traces answer "why was *this* query slow?" — whether its filter was an
// index descent or a sweep, how many EMD evaluations its rank ran — which no
// histogram can attribute. A trace is a bounded set of spans (name, start
// offset, duration, parent, integer attrs) recorded while one query runs.
//
// The design splits *recording* from *retention* so tracing can stay
// always-on without perturbing the measured system:
//
//   - Recording is allocation-free. An Active is a fixed-capacity span
//     buffer that callers embed by value inside state they already
//     allocate or pool per query (the engine's pooled queryScratch, the
//     server's per-connection state). Starting a
//     span, setting an attr and ending it are a mutex-guarded array write
//     each — no heap allocation, verified by TestFilterPathAllocs and
//     BenchmarkQueryPipelineTraced.
//   - Retention is decided at Finish: a trace is snapshotted (the only
//     allocation) and published only when it was explicitly requested
//     (Force), head-sampled (every Nth finished trace), or slower than the
//     tail-latency threshold — the slow-query log. Everything else
//     vanishes with zero residue.
//
// Completed traces land in lock-free fixed-size rings (recent + slow),
// exposed over the TRACE protocol command and the /debug/traces JSON
// endpoint (see Handler).
package trace

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ferret/internal/telemetry"
)

// TraceID identifies one trace; SpanID one span. Both render as 16-hex
// tokens on the wire and in JSON (uint64 values are not safe as JSON
// numbers).
type (
	TraceID uint64
	SpanID  uint64
)

func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }
func (id SpanID) String() string  { return fmt.Sprintf("%016x", uint64(id)) }

// ParseTraceID parses the wire form produced by TraceID.String.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad trace id %q", s)
	}
	return TraceID(v), nil
}

// MarshalJSON renders IDs as quoted hex strings.
func (id TraceID) MarshalJSON() ([]byte, error) { return []byte(`"` + id.String() + `"`), nil }
func (id SpanID) MarshalJSON() ([]byte, error)  { return []byte(`"` + id.String() + `"`), nil }

// idSeq is the process-wide ID sequence. Seeded from the wall clock and
// stepped by a 64-bit golden-ratio increment, successive IDs are unique per
// process and well spread without per-ID entropy costs.
var idSeq atomic.Uint64

const idGamma = 0x9E3779B97F4A7C15

func init() { idSeq.Store(uint64(time.Now().UnixNano())) }

func nextID() uint64 {
	v := idSeq.Add(idGamma)
	if v == 0 { // 0 means "unset" everywhere
		v = idSeq.Add(idGamma)
	}
	return v
}

// NewTraceID allocates a fresh trace ID.
func NewTraceID() TraceID { return TraceID(nextID()) }

// Capacity limits. MaxSpans bounds one trace's recording buffer (overflow
// is counted, never reallocated) and maxAttrs bounds per-span attributes.
const (
	MaxSpans = 24
	maxAttrs = 5
)

// Attr is one integer span attribute (EMD evaluations, pruned candidates,
// look-ups, ...). Integer-only keeps recording allocation-free.
type Attr struct {
	Key string `json:"k"`
	Val int64  `json:"v"`
}

// Params configures a Tracer. The zero value is an enabled tracer with
// defaults; Disable turns tracing off entirely.
type Params struct {
	// Disable turns the tracer off: New returns nil and every recording
	// call no-ops.
	Disable bool
	// SampleEvery retains every Nth finished trace in the recent ring
	// (head sampling). 0 means 64; negative disables head sampling —
	// forced and slow traces are still retained.
	SampleEvery int
	// SlowThreshold force-retains any trace at least this slow into the
	// slow-query log. 0 means 100ms; negative disables the log. Budget-
	// degraded queries are always treated as slow regardless of duration.
	SlowThreshold time.Duration
	// RecentSize and SlowSize are the ring capacities (0 = 64 and 32).
	RecentSize int
	SlowSize   int
}

func (p Params) sampleEvery() uint64 {
	switch {
	case p.SampleEvery == 0:
		return 64
	case p.SampleEvery < 0:
		return 0
	default:
		return uint64(p.SampleEvery)
	}
}

func (p Params) slowThreshold() time.Duration {
	switch {
	case p.SlowThreshold == 0:
		return 100 * time.Millisecond
	case p.SlowThreshold < 0:
		return 0
	default:
		return p.SlowThreshold
	}
}

func (p Params) recentSize() int {
	if p.RecentSize <= 0 {
		return 64
	}
	return p.RecentSize
}

func (p Params) slowSize() int {
	if p.SlowSize <= 0 {
		return 32
	}
	return p.SlowSize
}

// Tracer owns the retention policy and the completed-trace rings. A nil
// Tracer is valid and records nothing.
type Tracer struct {
	sampleEvery uint64        // head sampling period; 0 = off
	slow        time.Duration // tail-latency trigger; 0 = off

	finSeq atomic.Uint64 // finished traces, for head sampling

	recent ring
	slowR  ring

	cFinished *telemetry.Counter
	cRetained *telemetry.Counter
	cSlow     *telemetry.Counter
	cDropped  *telemetry.Counter
}

// New builds a Tracer, registering its accounting counters in reg (nil reg
// skips registration). Returns nil when p.Disable is set; a nil Tracer is
// safe to use everywhere.
func New(p Params, reg *telemetry.Registry) *Tracer {
	if p.Disable {
		return nil
	}
	t := &Tracer{
		sampleEvery: p.sampleEvery(),
		slow:        p.slowThreshold(),
	}
	t.recent.init(p.recentSize())
	t.slowR.init(p.slowSize())
	if reg != nil {
		t.cFinished = reg.Counter("ferret_traces_finished_total", "Query traces finished (retained or not).")
		t.cRetained = reg.Counter("ferret_traces_retained_total", "Query traces retained in the recent ring.")
		t.cSlow = reg.Counter("ferret_traces_slow_total", "Query traces retained in the slow-query log.")
		t.cDropped = reg.Counter("ferret_trace_spans_dropped_total", "Spans dropped because a trace's buffer was full.")
	}
	return t
}

// SlowThreshold reports the tail-latency trigger (0 = disabled).
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.slow
}

// ring is a lock-free fixed-size ring of completed traces: writers claim a
// slot with one atomic add and publish with one atomic pointer store;
// readers snapshot without blocking writers.
type ring struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
}

func (r *ring) init(n int) { r.slots = make([]atomic.Pointer[Trace], n) }

func (r *ring) add(tr *Trace) {
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(tr)
}

// snapshot returns the retained traces, newest first. Claim and publish are
// two separate atomics, so a reader racing a writer may briefly see the
// slot's previous occupant — fine for a diagnostic surface.
func (r *ring) snapshot() []*Trace {
	n := len(r.slots)
	out := make([]*Trace, 0, n)
	head := r.next.Load()
	for k := 0; k < n; k++ {
		i := (head + uint64(n) - 1 - uint64(k)) % uint64(n)
		if tr := r.slots[i].Load(); tr != nil {
			out = append(out, tr)
		}
	}
	return out
}

// spanRec is one recorded span inside an Active's fixed buffer.
type spanRec struct {
	id     SpanID
	parent SpanID
	name   string
	start  time.Duration // offset from trace start
	dur    time.Duration
	attrs  [maxAttrs]Attr
	nattrs int8
	open   bool
}

// Active is one query's in-flight trace recording state. Embed it by value
// in per-query state you already allocate (a request struct, pooled
// scratch, per-connection state): arming, recording and finishing never
// allocate. The zero value is disarmed and every method no-ops on it; all
// methods are also safe on a nil receiver, so "no trace" needs no branches
// at call sites. An Active may be re-armed after Finish (pooled reuse).
//
// Recording is mutex-guarded, so an Active handed from one goroutine to
// another (the serving goroutine's, the engine's) stays consistent.
type Active struct {
	mu      sync.Mutex
	t       *Tracer
	id      TraceID
	start   time.Time
	spans   [MaxSpans]spanRec // spans[0] is the root
	n       int32
	dropped int32
	forced  bool // retain regardless of sampling (client requested)
	slow    bool // treat as slow regardless of duration (budget-degraded)
	armed   bool
}

// Begin arms a for a new trace rooted at root with a fresh ID. It reports
// whether recording is on (false for a nil/disabled tracer).
func (t *Tracer) Begin(a *Active, root string) bool {
	return t.BeginWith(a, root, 0, false)
}

// BeginWith is Begin with an explicit trace ID (0 allocates one) and a
// forced-retention flag — the wire propagation entry point: a client that
// passed trace=<id> gets its trace retained regardless of sampling.
func (t *Tracer) BeginWith(a *Active, root string, id TraceID, force bool) bool {
	if t == nil || a == nil {
		return false
	}
	if id == 0 {
		id = NewTraceID()
	}
	a.mu.Lock()
	a.t = t
	a.id = id
	a.start = time.Now()
	a.n = 1
	a.dropped = 0
	a.forced = force
	a.slow = false
	a.armed = true
	a.spans[0] = spanRec{id: SpanID(nextID()), name: root, open: true}
	a.mu.Unlock()
	return true
}

// Armed reports whether a is currently recording.
func (a *Active) Armed() bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.armed
}

// ID returns the trace ID (0 when disarmed).
func (a *Active) ID() TraceID {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.armed {
		return 0
	}
	return a.id
}

// Elapsed returns the time since the trace began.
func (a *Active) Elapsed() time.Duration {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.armed {
		return 0
	}
	return time.Since(a.start)
}

// Force marks the trace for unconditional retention at Finish.
func (a *Active) Force() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.forced = true
	a.mu.Unlock()
}

// MarkSlow marks the trace as slow regardless of its duration — the hook
// for budget-degraded queries, which must always reach the slow-query log.
func (a *Active) MarkSlow() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.slow = a.armed
	a.mu.Unlock()
}

// alloc claims the next span slot under a.mu; returns -1 when disarmed or
// full (the drop is counted).
func (a *Active) alloc() int32 {
	if !a.armed {
		return -1
	}
	if int(a.n) >= MaxSpans {
		a.dropped++
		return -1
	}
	i := a.n
	a.n++
	return i
}

// Span is a value handle onto one recorded span. The zero Span is a no-op,
// so recording calls need no nil checks.
type Span struct {
	a *Active
	i int32
}

// StartSpan opens a span named name, parented on the root, starting now.
// Close it with End.
//
//ferret:noalloc
func (a *Active) StartSpan(name string) Span {
	if a == nil {
		return Span{}
	}
	a.mu.Lock()
	i := a.alloc()
	if i < 0 {
		a.mu.Unlock()
		return Span{}
	}
	a.spans[i] = spanRec{
		id:     SpanID(nextID()),
		parent: a.spans[0].id,
		name:   name,
		start:  time.Since(a.start),
		open:   true,
	}
	a.mu.Unlock()
	return Span{a: a, i: i}
}

// Record adds a completed span from an already-measured interval — the
// common form for stages that are timed anyway for histograms.
//
//ferret:noalloc
func (a *Active) Record(name string, start time.Time, d time.Duration) Span {
	if a == nil {
		return Span{}
	}
	a.mu.Lock()
	i := a.alloc()
	if i < 0 {
		a.mu.Unlock()
		return Span{}
	}
	off := start.Sub(a.start)
	if off < 0 {
		off = 0
	}
	a.spans[i] = spanRec{
		id:     SpanID(nextID()),
		parent: a.spans[0].id,
		name:   name,
		start:  off,
		dur:    d,
	}
	a.mu.Unlock()
	return Span{a: a, i: i}
}

// Root returns a handle onto the root span (for trace-level attrs).
func (a *Active) Root() Span {
	if a == nil {
		return Span{}
	}
	a.mu.Lock()
	armed := a.armed
	a.mu.Unlock()
	if !armed {
		return Span{}
	}
	return Span{a: a, i: 0}
}

// ID returns the span's ID (0 for a no-op handle).
func (s Span) ID() SpanID {
	if s.a == nil {
		return 0
	}
	s.a.mu.Lock()
	defer s.a.mu.Unlock()
	return s.a.spans[s.i].id
}

// SetAttr attaches an integer attribute; chainable. Attrs beyond the
// per-span capacity are dropped silently.
//
//ferret:noalloc
func (s Span) SetAttr(key string, v int64) Span {
	if s.a == nil {
		return s
	}
	s.a.mu.Lock()
	sp := &s.a.spans[s.i]
	if s.a.armed && int(sp.nattrs) < maxAttrs {
		sp.attrs[sp.nattrs] = Attr{Key: key, Val: v}
		sp.nattrs++
	}
	s.a.mu.Unlock()
	return s
}

// End closes a span opened with StartSpan, fixing its duration.
//
//ferret:noalloc
func (s Span) End() {
	if s.a == nil {
		return
	}
	s.a.mu.Lock()
	sp := &s.a.spans[s.i]
	if s.a.armed && sp.open {
		sp.dur = time.Since(s.a.start) - sp.start
		sp.open = false
	}
	s.a.mu.Unlock()
}

// Stage is one aggregated per-stage timing, the payload of the wire-level
// stage breakdown returned to clients that requested a trace.
type Stage struct {
	Name string
	Dur  time.Duration
}

// Stages sums span durations by name in first-appearance order (the root
// span is reported as "total", using the elapsed time so far). It
// allocates; call it only for traced responses.
func (a *Active) Stages() []Stage {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.armed {
		return nil
	}
	out := make([]Stage, 0, int(a.n))
	for i := int32(1); i < a.n; i++ {
		sp := &a.spans[i]
		found := false
		for j := range out {
			if out[j].Name == sp.name {
				out[j].Dur += sp.dur
				found = true
				break
			}
		}
		if !found {
			out = append(out, Stage{Name: sp.name, Dur: sp.dur})
		}
	}
	out = append(out, Stage{Name: "total", Dur: time.Since(a.start)})
	return out
}

// Finish closes the trace and applies the retention policy: the trace is
// snapshotted and published iff it was forced, head-sampled, or slow
// (threshold or MarkSlow). Returns the retained snapshot or nil. Finish
// disarms a; later recording calls no-op until the next Begin. Safe on a
// nil, zero, or already-finished Active.
func (a *Active) Finish() *Trace {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.armed {
		return nil
	}
	a.armed = false
	t := a.t
	dur := time.Since(a.start)
	a.spans[0].dur = dur
	a.spans[0].open = false
	if t.cFinished != nil {
		t.cFinished.Inc()
	}
	if a.dropped > 0 && t.cDropped != nil {
		t.cDropped.Add(int(a.dropped))
	}

	slow := a.slow || (t.slow > 0 && dur >= t.slow)
	sampled := t.sampleEvery > 0 && t.finSeq.Add(1)%t.sampleEvery == 0
	if !a.forced && !sampled && !slow {
		return nil
	}

	tr := &Trace{
		ID:      a.id,
		Root:    a.spans[0].name,
		Start:   a.start,
		Dur:     dur,
		Slow:    slow,
		Forced:  a.forced,
		Dropped: int(a.dropped),
		Spans:   make([]SpanData, a.n),
	}
	for i := int32(0); i < a.n; i++ {
		sp := &a.spans[i]
		sd := SpanData{
			ID:     sp.id,
			Parent: sp.parent,
			Name:   sp.name,
			Start:  sp.start,
			Dur:    sp.dur,
		}
		if sp.nattrs > 0 {
			sd.Attrs = make([]Attr, sp.nattrs)
			copy(sd.Attrs, sp.attrs[:sp.nattrs])
		}
		tr.Spans[i] = sd
	}
	t.recent.add(tr)
	if t.cRetained != nil {
		t.cRetained.Inc()
	}
	if slow {
		t.slowR.add(tr)
		if t.cSlow != nil {
			t.cSlow.Inc()
		}
	}
	return tr
}

// Trace is a retained, immutable snapshot of one finished trace.
type Trace struct {
	ID      TraceID       `json:"id"`
	Root    string        `json:"root"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"duration_ns"`
	Slow    bool          `json:"slow,omitempty"`
	Forced  bool          `json:"forced,omitempty"`
	Dropped int           `json:"dropped_spans,omitempty"`
	Spans   []SpanData    `json:"spans"`
}

// SpanData is one span of a retained trace.
type SpanData struct {
	ID     SpanID        `json:"id"`
	Parent SpanID        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"duration_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

// Span returns the first span with the given name, if any.
func (tr *Trace) Span(name string) (SpanData, bool) {
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return SpanData{}, false
}

// Compact renders the trace as one protocol-friendly line:
//
//	<id> <root> <dur> [slow] [forced] | <span> <dur> [k=v ...] | ...
func (tr *Trace) Compact() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s %s", tr.ID, tr.Root, tr.Dur.Round(time.Microsecond))
	if tr.Slow {
		sb.WriteString(" slow")
	}
	if tr.Forced {
		sb.WriteString(" forced")
	}
	for _, sp := range tr.Spans[1:] {
		fmt.Fprintf(&sb, " | %s %s", sp.Name, sp.Dur.Round(time.Microsecond))
		for _, at := range sp.Attrs {
			fmt.Fprintf(&sb, " %s=%d", at.Key, at.Val)
		}
	}
	if tr.Dropped > 0 {
		fmt.Fprintf(&sb, " | +%d spans dropped", tr.Dropped)
	}
	return sb.String()
}

// Recent returns retained traces, newest first.
func (t *Tracer) Recent() []*Trace {
	if t == nil {
		return nil
	}
	return t.recent.snapshot()
}

// Slow returns the slow-query log, newest first.
func (t *Tracer) Slow() []*Trace {
	if t == nil {
		return nil
	}
	return t.slowR.snapshot()
}

// Find looks a retained trace up by ID (slow ring first: slow traces
// outlive the recent ring's churn).
func (t *Tracer) Find(id TraceID) *Trace {
	if t == nil {
		return nil
	}
	for _, tr := range t.slowR.snapshot() {
		if tr.ID == id {
			return tr
		}
	}
	for _, tr := range t.recent.snapshot() {
		if tr.ID == id {
			return tr
		}
	}
	return nil
}

// FormatStages renders aggregated stage timings for human consumption:
// "parse 12µs → sketch 8µs → filter 1.1ms → rank 420µs (total 1.6ms)".
func FormatStages(stages []Stage) string {
	var parts []string
	total := ""
	for _, st := range stages {
		if st.Name == "total" {
			total = st.Dur.Round(time.Microsecond).String()
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %s", st.Name, st.Dur.Round(time.Microsecond)))
	}
	s := strings.Join(parts, " → ")
	if total != "" {
		if s != "" {
			s += " "
		}
		s += "(total " + total + ")"
	}
	return s
}
