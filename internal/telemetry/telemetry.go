// Package telemetry provides the toolkit's runtime observability layer:
// lock-cheap counters, gauges and fixed-bucket latency histograms backed by
// atomics, a metric registry with Prometheus-style text exposition and
// expvar-style JSON, a structured leveled key=value logger, and HTTP debug
// handlers (/metrics, /debug/vars, /debug/pprof/).
//
// The paper's evaluation (§6) attributes query time to the pipeline stages
// — sketch construction, filtering, ranking — so the engine and server
// record per-stage timings and pipeline counters here. Everything is
// stdlib-only and safe under the engine's parallel scan paths: a metric
// update is one or two atomic operations, never a mutex in the hot path.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric (events, bytes, evaluations).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n is clamped at zero: counters never decrease).
func (c *Counter) Add(n int) {
	if n > 0 {
		c.v.Add(uint64(n))
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value (live objects, in-flight queries).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// metric is one registered series: a base name plus an optional label set.
type metric struct {
	name   string // base metric name, e.g. ferret_query_stage_seconds
	labels string // rendered label pairs, e.g. `stage="filter"` ("" = none)
	help   string
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// series is the full identity: name{labels}.
func (m *metric) series() string {
	if m.labels == "" {
		return m.name
	}
	return m.name + "{" + m.labels + "}"
}

// flatName is a protocol/JSON-safe identity: the base name with label
// values appended with underscores (ferret_query_stage_seconds_filter).
func (m *metric) flatName() string {
	if m.labels == "" {
		return m.name
	}
	flat := m.name
	for _, pair := range strings.Split(m.labels, ",") {
		if eq := strings.IndexByte(pair, '='); eq >= 0 {
			flat += "_" + sanitize(strings.Trim(pair[eq+1:], `"`))
		}
	}
	return flat
}

func sanitize(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// Registry holds named metrics. Registration is get-or-create: asking for
// the same name (and labels) twice returns the same metric, so components
// that may be constructed more than once over a shared registry (servers,
// engines) do not collide. Registering the same series as a different kind
// panics — that is always a programming error.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// renderLabels turns variadic k, v pairs into `k="v",k2="v2"`.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be key/value pairs")
	}
	var sb strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", labels[i], labels[i+1])
	}
	return sb.String()
}

// lookup returns the series registered under name and labels, creating it —
// value included, under the registry lock, so a concurrent scrape never sees
// a series without one — on first use.
func (r *Registry) lookup(name, help string, kind metricKind, buckets []float64, labels []string) *metric {
	rendered := renderLabels(labels)
	key := name + "{" + rendered + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s already registered as %s, requested %s", key, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, labels: rendered, help: help, kind: kind}
	switch kind {
	case kindCounter:
		m.counter = &Counter{}
	case kindGauge:
		m.gauge = &Gauge{}
	case kindHistogram:
		m.hist = NewHistogram(buckets)
	}
	r.metrics[key] = m
	return m
}

// Counter returns the counter registered under name (and optional k, v
// label pairs), creating it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.lookup(name, help, kindCounter, nil, labels).counter
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.lookup(name, help, kindGauge, nil, labels).gauge
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use (nil = DefTimeBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	return r.lookup(name, help, kindHistogram, buckets, labels).hist
}

// snapshot returns the registered metrics sorted by base name then labels —
// the deterministic exposition order.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// Each visits every registered series as flat name/value pairs, in sorted
// order. Histograms contribute <name>_count, <name>_sum and estimated
// <name>_p50/_p90/_p99 values. This is the feed for the protocol TELEMETRY
// command and the /debug/vars JSON.
func (r *Registry) Each(fn func(name string, value float64)) {
	for _, m := range r.snapshot() {
		flat := m.flatName()
		switch m.kind {
		case kindCounter:
			fn(flat, float64(m.counter.Value()))
		case kindGauge:
			fn(flat, float64(m.gauge.Value()))
		case kindHistogram:
			s := m.hist.Snapshot()
			fn(flat+"_count", float64(s.Count))
			fn(flat+"_sum", s.Sum)
			fn(flat+"_p50", s.Quantile(0.50))
			fn(flat+"_p90", s.Quantile(0.90))
			fn(flat+"_p99", s.Quantile(0.99))
		}
	}
}

// Value returns the current value of a flat series name (counter or gauge),
// or 0 if absent — a convenience for tests and the STATS extension.
func (r *Registry) Value(flat string) float64 {
	var out float64
	r.Each(func(name string, v float64) {
		if name == flat {
			out = v
		}
	})
	return out
}

// WritePrometheus renders all metrics in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers per base name, cumulative
// le-labelled buckets plus _sum and _count for histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	metrics := r.snapshot()
	var lastName string
	for _, m := range metrics {
		if m.name != lastName {
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind); err != nil {
				return err
			}
			lastName = m.name
		}
		switch m.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "%s %d\n", m.series(), m.counter.Value()); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "%s %d\n", m.series(), m.gauge.Value()); err != nil {
				return err
			}
		case kindHistogram:
			if err := writePromHistogram(w, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, m *metric) error {
	s := m.hist.Snapshot()
	withLe := func(le string) string {
		if m.labels == "" {
			return fmt.Sprintf("%s_bucket{le=%q}", m.name, le)
		}
		return fmt.Sprintf("%s_bucket{%s,le=%q}", m.name, m.labels, le)
	}
	cum := uint64(0)
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		if _, err := fmt.Fprintf(w, "%s %d\n", withLe(formatBound(bound)), cum); err != nil {
			return err
		}
	}
	cum += s.Counts[len(s.Bounds)]
	if _, err := fmt.Fprintf(w, "%s %d\n", withLe("+Inf"), cum); err != nil {
		return err
	}
	suffix := func(sfx string) string {
		if m.labels == "" {
			return m.name + sfx
		}
		return m.name + sfx + "{" + m.labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s %g\n", suffix("_sum"), s.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", suffix("_count"), s.Count)
	return err
}

func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", b)
}
