// Package ferret is a toolkit for building content-based similarity search
// systems for feature-rich data — a from-scratch Go implementation of
// "Ferret: A Toolkit for Content-Based Similarity Search of Feature-Rich
// Data" (Lv, Josephson, Wang, Charikar, Li — EuroSys 2006).
//
// A search system is built by combining the toolkit's core components with
// data-type specific plug-ins:
//
//   - an Extractor (segmentation + feature extraction) turning raw data
//     into weighted sets of feature vectors,
//   - a segment distance function (default ℓ₁) and an object distance
//     function (default Earth Mover's Distance), and
//   - sketching/filtering/ranking parameters.
//
// The toolkit supplies the core similarity search engine (sketch
// construction, filtering, ranking), attribute-based search, transactional
// metadata storage with crash recovery, a command-line query protocol with
// TCP server and client, data acquisition, a web interface and a
// performance evaluation tool. Ready-made configurations for the paper's
// four data types (images, audio, 3D shapes, genomic microarrays) live in
// datatypes.go.
//
// Basic use:
//
//	sys, err := ferret.Open(ferret.Config{
//	    Dir:    "/var/lib/myferret",
//	    Sketch: ferret.SketchParams{N: 96, Min: mins, Max: maxs},
//	}, nil)
//	id, err := sys.Ingest(obj, ferret.Attrs{"note": "a dog"})
//	results, err := sys.Query(queryObj, ferret.QueryOptions{K: 10})
package ferret

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"ferret/internal/acquire"
	"ferret/internal/attr"
	"ferret/internal/core"
	"ferret/internal/evaltool"
	"ferret/internal/object"
	"ferret/internal/protocol"
	"ferret/internal/server"
	"ferret/internal/sketch"
	"ferret/internal/telemetry"
	"ferret/internal/telemetry/trace"
	"ferret/internal/vector"
	"ferret/internal/webui"
)

// Core data model (paper §2).
type (
	// Object is the generic multi-feature data object: a set of weighted
	// feature vectors.
	Object = object.Object
	// Segment is one weighted feature vector of an object.
	Segment = object.Segment
	// ID identifies an ingested object.
	ID = object.ID
	// Attrs are the keyword attributes / annotations of an object.
	Attrs = attr.Attrs
	// AttrQuery is an attribute-based search request.
	AttrQuery = attr.Query
)

// Engine configuration and query types (paper §3–§4).
type (
	// Config parameterizes a search system; see core.Config.
	Config = core.Config
	// SketchParams configures sketch construction (paper Algorithms 1–2).
	SketchParams = sketch.Params
	// FilterParams tunes the filtering unit.
	FilterParams = core.FilterParams
	// HIndexParams configures the multi-table Hamming index built over each
	// sealed segment (sub-linear filtering); the Config.HIndex field.
	HIndexParams = core.HIndexParams
	// SegmentParams configures the segmented ingest pipeline (sealed
	// immutable segments + background compaction); the Config.Segments
	// field. The zero value takes the defaults.
	SegmentParams = core.SegmentParams
	// IngestParams configures the bounded ingest queue (backpressure or
	// shed between producers and the engine's serialized write path); the
	// Config.Ingest field.
	IngestParams = core.IngestParams
	// TraceParams configures the query tracer (sampling retention and the
	// slow-query log); the Config.Trace field. The zero value enables
	// tracing with defaults.
	TraceParams = trace.Params
	// ResultCacheParams configures the engine's hot-query result cache
	// (epoch-invalidated, LRU + single-flight); the Config.ResultCache
	// field. The zero value disables the cache.
	ResultCacheParams = core.ResultCacheParams
	// QueryOptions controls one similarity query.
	QueryOptions = core.QueryOptions
	// Result is one ranked answer.
	Result = core.Result
	// Answer is one query's outcome: ranked results plus the degradation
	// flag set when a time budget expired mid-rank.
	Answer = core.Answer
	// Mode selects the search approach.
	Mode = core.Mode
	// SegmentDistance is the plug-in segment distance function type.
	SegmentDistance = vector.Func
	// Report aggregates an evaluation run.
	Report = evaltool.Report
)

// Search modes (paper §6.3.3).
const (
	Filtering          = core.Filtering
	BruteForceOriginal = core.BruteForceOriginal
	BruteForceSketch   = core.BruteForceSketch
)

// ParseMode resolves a mode name ("filtering", "bruteforce", "sketch").
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// NewObject builds a multi-segment object from parallel weights/vectors.
func NewObject(key string, weights []float32, vecs [][]float32) (Object, error) {
	return object.New(key, weights, vecs)
}

// SingleVector builds a one-segment object (3D shapes, genes).
func SingleVector(key string, vec []float32) Object { return object.Single(key, vec) }

// Extractor is the plug-in segmentation and feature extraction interface
// (the paper's seg_extract_func): it converts a data file into an Object.
type Extractor interface {
	Extract(path string) (Object, error)
}

// ExtractorFunc adapts a function to the Extractor interface.
type ExtractorFunc func(path string) (Object, error)

// Extract calls f.
func (f ExtractorFunc) Extract(path string) (Object, error) { return f(path) }

// ServerConfig tunes the protocol server's resilience policy (see
// server.Server).
type ServerConfig struct {
	// QueryBudget is the per-query time budget; expired queries answer
	// degraded instead of running on (0 = unbounded).
	QueryBudget time.Duration
	// MaxConns caps concurrent client connections; excess connections get
	// one BUSY error and are closed (0 = unlimited).
	MaxConns int
	// ReadTimeout bounds the wait for each request line (0 = none).
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write (0 = none).
	WriteTimeout time.Duration
}

// System is a running similarity search system: the core engine plus the
// plug-in extractor, with constructors for the surrounding infrastructure
// (server, web UI, acquisition, evaluation).
type System struct {
	engine    *core.Engine
	extractor Extractor
	logger    *telemetry.Logger

	srvCfg  ServerConfig
	srvOnce sync.Once
	srv     *server.Server
}

// Open opens or creates a search system. extractor may be nil for systems
// fed programmatically (Ingest) rather than from files.
func Open(cfg Config, extractor Extractor) (*System, error) {
	engine, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &System{engine: engine, extractor: extractor}, nil
}

// Close releases the system and its metadata store.
func (s *System) Close() error { return s.engine.Close() }

// Engine exposes the core similarity search engine.
func (s *System) Engine() *core.Engine { return s.engine }

// Count returns the number of ingested objects.
func (s *System) Count() int { return s.engine.Count() }

// Ingest adds one extracted object with attributes.
func (s *System) Ingest(o Object, a Attrs) (ID, error) { return s.engine.Ingest(o, a) }

// IngestQueued adds one object through the bounded ingest queue when one is
// configured (Config.Ingest): under backpressure the call blocks until the
// queue drains (ctx cancels the wait); under the shed policy a full queue
// rejects with core.ErrOverloaded. Without a queue it is exactly Ingest.
func (s *System) IngestQueued(ctx context.Context, o Object, a Attrs) (ID, error) {
	return s.engine.IngestQueued(ctx, o, a)
}

// IngestQueueDepth reports the bounded ingest queue's current backlog (0
// when no queue is configured) — the ingest daemon's overload signal.
func (s *System) IngestQueueDepth() int { return s.engine.IngestQueueDepth() }

// IngestFile extracts and ingests a data file through the plug-in.
func (s *System) IngestFile(path string, a Attrs) (ID, error) {
	if s.extractor == nil {
		return 0, fmt.Errorf("ferret: no extractor plugged in")
	}
	o, err := s.extractor.Extract(path)
	if err != nil {
		return 0, err
	}
	if o.Key == "" {
		o.Key = path
	}
	return s.engine.Ingest(o, a)
}

// Query runs a similarity search with an extracted query object.
func (s *System) Query(q Object, opt QueryOptions) ([]Result, error) {
	ans, err := s.engine.Search(context.Background(), q, opt)
	return ans.Results, err
}

// Search is Query with cancellation and graceful degradation: ctx aborts
// the search, and opt.Budget (when positive) bounds its execution time —
// an expired budget returns the best results so far with Answer.Degraded
// set rather than an error.
func (s *System) Search(ctx context.Context, q Object, opt QueryOptions) (Answer, error) {
	return s.engine.Search(ctx, q, opt)
}

// SearchBatch runs several queries as concurrent Search calls, at most
// GOMAXPROCS at a time (see core.Engine.SearchBatch); the returned slices
// are parallel to queries.
func (s *System) SearchBatch(ctx context.Context, queries []Object, opt QueryOptions) ([]Answer, []error) {
	return s.engine.SearchBatch(ctx, queries, opt)
}

// QueryFile extracts a file and uses it as the query object.
func (s *System) QueryFile(path string, opt QueryOptions) ([]Result, error) {
	if s.extractor == nil {
		return nil, fmt.Errorf("ferret: no extractor plugged in")
	}
	o, err := s.extractor.Extract(path)
	if err != nil {
		return nil, err
	}
	return s.Query(o, opt)
}

// QueryByKey uses an already-ingested object as the query.
func (s *System) QueryByKey(key string, opt QueryOptions) ([]Result, error) {
	id, ok := s.engine.Meta().LookupKey(key)
	if !ok {
		return nil, fmt.Errorf("ferret: unknown object key %q", key)
	}
	ans, err := s.engine.SearchByID(context.Background(), id, opt)
	return ans.Results, err
}

// KeyOf resolves an ID to its external key.
func (s *System) KeyOf(id ID) string { return s.engine.Meta().Key(id) }

// LookupKey resolves an external key to its ID.
func (s *System) LookupKey(key string) (ID, bool) { return s.engine.Meta().LookupKey(key) }

// SearchAttrs runs an attribute-based search (bootstrap or refinement,
// paper §4.1.2).
func (s *System) SearchAttrs(q AttrQuery) []ID { return s.engine.Attrs().Search(q) }

// AttrsOf returns the stored attributes of an object.
func (s *System) AttrsOf(id ID) (Attrs, bool) { return s.engine.Attrs().Get(id) }

// Checkpoint forces a durable metadata snapshot.
func (s *System) Checkpoint() error { return s.engine.Meta().Checkpoint() }

// Telemetry returns the system's metric registry (per-stage query latency
// histograms, pipeline counters, serving-layer metrics).
func (s *System) Telemetry() *telemetry.Registry { return s.engine.Telemetry() }

// SetLogger attaches a structured logger; the protocol server logs
// connection lifecycle events through it. A nil logger (the default)
// discards them.
func (s *System) SetLogger(l *telemetry.Logger) { s.logger = l }

// DebugHandler returns the observability HTTP handler for this system:
// Prometheus text at /metrics, expvar JSON at /debug/vars, runtime profiles
// at /debug/pprof/ and retained query traces (recent ring + slow-query log)
// as JSON at /debug/traces. Mount it on a private listener.
func (s *System) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", telemetry.DebugHandler(s.engine.Telemetry()))
	mux.Handle("/debug/traces", trace.Handler(s.engine.Tracer()))
	return mux
}

// SetServerConfig installs the protocol server's resilience policy. It
// must be called before the first Serve/ServeContext.
func (s *System) SetServerConfig(cfg ServerConfig) { s.srvCfg = cfg }

// Serve runs the command-line query protocol server on l until closed.
func (s *System) Serve(l net.Listener) error {
	return s.ServeContext(context.Background(), l)
}

// ServeContext runs the protocol server on l until ctx is cancelled or
// Shutdown is called. A cancelled ctx stops accepting; in-flight queries
// are only aborted by Shutdown's grace expiry.
func (s *System) ServeContext(ctx context.Context, l net.Listener) error {
	return s.server().Serve(ctx, l)
}

// Shutdown drains the protocol server: idle connections close immediately,
// in-flight requests get until ctx expires, and the rest are aborted. It
// reports how many busy connections drained versus were aborted.
func (s *System) Shutdown(ctx context.Context) (drained, aborted int, err error) {
	return s.server().Shutdown(ctx)
}

// ListenAndServe runs the protocol server on a TCP address.
func (s *System) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// server memoizes the protocol server so Serve and Shutdown act on the
// same instance.
func (s *System) server() *server.Server {
	s.srvOnce.Do(func() {
		srv := &server.Server{
			Engine:       s.engine,
			DefaultK:     10,
			QueryBudget:  s.srvCfg.QueryBudget,
			MaxConns:     s.srvCfg.MaxConns,
			ReadTimeout:  s.srvCfg.ReadTimeout,
			WriteTimeout: s.srvCfg.WriteTimeout,
			Logger:       s.logger.With("server"),
		}
		if s.extractor != nil {
			srv.Extract = s.extractor.Extract
		}
		s.srv = srv
	})
	return s.srv
}

// WebHandler returns the customizable web interface (paper §4.3) bound
// directly to this system (no TCP hop). present customizes per-result
// presentation and may be nil.
func (s *System) WebHandler(title string, present webui.Presenter) http.Handler {
	return webui.Handler(&localBackend{s}, title, present)
}

// NewScanner builds a data acquisition scanner over dir wired to this
// system (paper §4.3). exts filters extensions (ex. ".png"); empty accepts
// all files.
func (s *System) NewScanner(dir string, exts []string) *acquire.Scanner {
	return &acquire.Scanner{
		Dir:        dir,
		Extensions: exts,
		Extract: func(path string) (Object, error) {
			if s.extractor == nil {
				return Object{}, fmt.Errorf("ferret: no extractor plugged in")
			}
			return s.extractor.Extract(path)
		},
		Exists: func(key string) bool {
			_, ok := s.engine.Meta().LookupKey(key)
			return ok
		},
		Ingest: func(o Object, a Attrs) error {
			// Through the bounded ingest queue when one is configured, so a
			// fast scan slows to the engine's commit rate instead of piling
			// goroutines onto the write path.
			_, err := s.engine.IngestQueued(context.Background(), o, a)
			return err
		},
	}
}

// Evaluate drives the performance evaluation tool over ground-truth
// similarity sets (lists of object keys) and reports quality and latency.
func (s *System) Evaluate(sets [][]string, opt QueryOptions) (Report, error) {
	r := &evaltool.Runner{Engine: s.engine, Options: opt}
	return r.Run(sets)
}

// localBackend adapts the engine to the web UI's Backend without a TCP
// connection (useful for single-process deployments and tests; remote
// deployments use protocol.Dial instead).
type localBackend struct{ s *System }

func (b *localBackend) Count() (int, error) { return b.s.Count(), nil }

func (b *localBackend) Query(key string, p protocol.QueryParams) ([]protocol.Result, error) {
	mode, err := core.ParseMode(p.Mode)
	if err != nil {
		return nil, err
	}
	opt := QueryOptions{K: p.K, Mode: mode}
	if len(p.Keywords) > 0 || len(p.Attrs) > 0 {
		opt.Restrict = map[ID]bool{}
		for _, id := range b.s.SearchAttrs(AttrQuery{Keywords: p.Keywords, Equal: p.Attrs}) {
			opt.Restrict[id] = true
		}
	}
	results, err := b.s.QueryByKey(key, opt)
	if err != nil {
		return nil, err
	}
	out := make([]protocol.Result, len(results))
	for i, r := range results {
		out[i] = protocol.Result{Key: r.Key, Distance: r.Distance}
	}
	return out, nil
}

func (b *localBackend) Search(keywords []string, attrs map[string]string) ([]protocol.Result, error) {
	ids := b.s.SearchAttrs(AttrQuery{Keywords: keywords, Equal: attrs})
	out := make([]protocol.Result, len(ids))
	for i, id := range ids {
		out[i] = protocol.Result{Key: b.s.KeyOf(id)}
	}
	return out, nil
}

func (b *localBackend) Info(key string) (map[string]string, error) {
	id, ok := b.s.LookupKey(key)
	if !ok {
		return nil, fmt.Errorf("ferret: unknown object key %q", key)
	}
	pairs := map[string]string{"key": key}
	if a, ok := b.s.AttrsOf(id); ok {
		for k, v := range a {
			pairs["attr:"+k] = v
		}
	}
	return pairs, nil
}
