// Package core implements the Ferret toolkit's core similarity search
// engine (paper §4.1.1): the data-input pipeline (sketch construction and
// metadata persistence) and the query pipeline (filtering and similarity
// ranking) over the generic weighted multi-segment object representation.
//
// The engine supports the three search approaches evaluated in §6.3.3:
//
//   - BruteForceOriginal — object distance against every object, using the
//     original feature vectors.
//   - BruteForceSketch — object distance against every object, with segment
//     distances estimated from sketches (Hamming distance).
//   - Filtering — a fast sketch scan builds a small candidate set, which is
//     then ranked with the accurate object distance.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	rtrace "runtime/trace"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ferret/internal/attr"
	"ferret/internal/emd"
	"ferret/internal/kvstore"
	"ferret/internal/metastore"
	"ferret/internal/object"
	"ferret/internal/sketch"
	"ferret/internal/telemetry"
	"ferret/internal/telemetry/trace"
	"ferret/internal/vector"
)

// Mode selects one of the three search approaches.
type Mode int

const (
	// Filtering is the default two-phase approach: sketch filter + rank.
	Filtering Mode = iota
	// BruteForceOriginal ranks every object with the accurate object
	// distance on the original feature vectors.
	BruteForceOriginal
	// BruteForceSketch ranks every object with segment distances estimated
	// from sketches.
	BruteForceSketch
)

// ModeOf is the one table of mode names, matched case-insensitively:
// "filtering"/"filter" ("" too), "bruteforce"/"original"/"bruteforceoriginal"
// and "sketch"/"bruteforcesketch". It takes the name as bytes so the server
// resolves a request's mode without allocating: the switch's string(b)
// conversions compile to allocation-free comparisons, and only a name that
// matches nothing as sent pays for lower-casing.
func ModeOf(b []byte) (Mode, bool) {
	switch string(b) {
	case "", "filtering", "filter":
		return Filtering, true
	case "bruteforce", "original", "bruteforceoriginal":
		return BruteForceOriginal, true
	case "sketch", "bruteforcesketch":
		return BruteForceSketch, true
	}
	if lower := bytes.ToLower(b); !bytes.Equal(lower, b) {
		return ModeOf(lower)
	}
	return 0, false
}

// ParseMode resolves a mode name through ModeOf's table.
func ParseMode(s string) (Mode, error) {
	if m, ok := ModeOf([]byte(s)); ok {
		return m, nil
	}
	return 0, fmt.Errorf("core: unknown mode %q", s)
}

func (m Mode) String() string {
	switch m {
	case Filtering:
		return "Filtering"
	case BruteForceOriginal:
		return "BruteForceOriginal"
	case BruteForceSketch:
		return "BruteForceSketch"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// FilterParams tunes the filtering unit (paper §4.1.1, §5: "number of query
// segments to use in filtering, number of filtered candidates to get for
// each query segment").
type FilterParams struct {
	// QuerySegments is r: how many of the query's highest-weight segments
	// drive the filter. 0 means min(4, #segments).
	QuerySegments int
	// NearestPerSegment is k: how many nearest dataset segments each query
	// segment contributes to the candidate set. 0 means 10× the requested
	// result count.
	NearestPerSegment int
	// MaxHammingFrac is the loosest acceptable Hamming distance, as a
	// fraction of the sketch size, for a zero-weight query segment.
	// 0 means 0.49 (just below the 0.5 uncorrelated point).
	MaxHammingFrac float64
	// WeightTighten makes the threshold a decreasing function of the query
	// segment weight w(Qᵢ): threshold(w) = MaxHammingFrac·(1−WeightTighten·w).
	// 0 means 0.2; high-weight query segments demand closer matches.
	WeightTighten float64
	// ExactDistance filters by computing the user-supplied segment
	// distance function directly against all feature-vector metadata
	// instead of comparing sketches — the paper's alternative filtering
	// path (§4.1.1). Slower per segment but exact; unavailable in
	// sketch-only databases. Each query segment keeps its k nearest.
	ExactDistance bool
}

func (p FilterParams) withDefaults(nseg, resultK int) FilterParams {
	if p.QuerySegments <= 0 {
		p.QuerySegments = 4
	}
	if p.QuerySegments > nseg {
		p.QuerySegments = nseg
	}
	if p.NearestPerSegment <= 0 {
		p.NearestPerSegment = 10 * resultK
		if p.NearestPerSegment < 32 {
			p.NearestPerSegment = 32
		}
	}
	if p.MaxHammingFrac <= 0 {
		// Just below the 0.5 uncorrelated point: the k-nearest heap (not
		// the threshold) is the main candidate bound, so a loose default
		// keeps recall high for queries whose neighbors are genuinely far.
		p.MaxHammingFrac = 0.49
	}
	if p.WeightTighten <= 0 {
		p.WeightTighten = 0.2
	}
	return p
}

// Config parameterizes an Engine — the plug-in distance functions and the
// sketching/filtering/ranking parameters from paper §5.
type Config struct {
	// Dir is the metadata directory.
	Dir string
	// Store configures the underlying kvstore (durability policy etc.).
	Store kvstore.Options
	// Sketch configures sketch construction for this data type's feature
	// space (N, K, min/max/weights per dimension).
	Sketch sketch.Params
	// SegmentDistance is the plug-in seg_distance; nil means ℓ₁.
	SegmentDistance vector.Func
	// ObjectDistance is the plug-in obj_distance; nil means EMD with
	// SegmentDistance as the ground distance and RankThreshold applied.
	// Neither plug-in may modify the vectors it is given: a stored
	// object's alias the metadata store's records.
	ObjectDistance func(a, b object.Object) float64
	// RankThreshold, when positive, caps segment distances inside the
	// default EMD object distance (thresholded EMD, paper §5.1). It is
	// also applied, rescaled, to sketch-estimated distances.
	RankThreshold float64
	// SqrtWeights enables the square-root segment weighting of the
	// improved EMD [27] in the default object distance.
	SqrtWeights bool
	// SketchOnly keeps sketches as the only internal data structures
	// (paper §4.1.1): feature vectors are not persisted and ranking uses
	// sketch-estimated distances in every mode.
	SketchOnly bool
	// Filter tunes the filtering unit.
	Filter FilterParams
	// HIndex optionally accelerates the filtering unit with a multi-table
	// Hamming index over each sealed segment's arena (see internal/hindex
	// and probe.go): a k-nearest descent, sub-linear in corpus size and
	// bit-identical to the arena scan, which it falls back to once it has
	// cost as much.
	HIndex HIndexParams
	// Segments configures the LSM-flavored segmented ingest pipeline (see
	// segment.go and compactor.go): writes land in a small mutable tail
	// segment that is sealed at SealEntries, while a background compactor
	// merges sealed segments incrementally. The zero value takes the
	// defaults.
	Segments SegmentParams
	// Ingest configures ingest admission (see ingest.go): a bound on the
	// producers IngestQueued lets wait for the engine's serialized write
	// path. The zero value admits writers directly.
	Ingest IngestParams
	// ResultCache configures the engine-level hot-query result cache (see
	// cache.go): exact answers keyed on (query identity, canonicalized
	// options), invalidated by every published view (ingest, delete, seal,
	// compaction swap). The zero value disables caching.
	ResultCache ResultCacheParams
	// Telemetry is the metric registry the engine records into. nil gives
	// the engine a private registry (reachable via Engine.Telemetry);
	// passing one in lets the engine share a registry with the serving
	// layer so one /metrics endpoint covers the whole process.
	Telemetry *telemetry.Registry
	// Trace configures the engine's query tracer (see
	// internal/telemetry/trace): head-sampled retention of per-query
	// pipeline traces plus the always-on slow-query log. Every query is
	// recorded; the zero value retains with defaults.
	Trace trace.Params
}

// Result is one ranked search answer.
type Result struct {
	ID       object.ID
	Key      string
	Distance float64
}

// QueryOptions controls one similarity query.
type QueryOptions struct {
	// Mode selects the search approach; default Filtering.
	Mode Mode
	// K is the number of results to return; 0 means 10.
	K int
	// Filter overrides the engine's filter parameters when any field is
	// set.
	Filter FilterParams
	// Restrict, when non-nil, limits the search to this ID set — the hook
	// used to combine attribute-based search with similarity search
	// (paper §4.1.2).
	Restrict map[object.ID]bool
	// Budget, when positive, bounds the query's execution time. The
	// filtering stage always completes; if the budget expires during the
	// ranking stage, the query returns the best results ranked so far —
	// unranked candidates fall back to ascending sketch-estimated distance
	// — with Answer.Degraded set, instead of running on or failing.
	// Context cancellation, by contrast, aborts the query with an error.
	Budget time.Duration
	// Trace, when non-nil, is an externally-armed recording buffer the
	// query's pipeline spans land in — the server arms one per traced
	// request so the trace also covers protocol parse and response write.
	// nil lets the engine arm (and head-sample) its own. Single queries
	// only; SearchBatch and SearchBatchByID arm per-query engine traces
	// regardless.
	Trace *trace.Active
	// ForceTrace forces retention of the engine-armed trace and attaches
	// its identity and stage breakdown to the Answer — the programmatic
	// way to trace one query (and BATCHQUERY's per-query path). Ignored
	// when Trace is set: the caller owns retention then.
	ForceTrace bool
}

// Answer is one query's outcome.
type Answer struct {
	// Results are the ranked matches, ascending by distance.
	Results []Result
	// Degraded reports that the time budget expired mid-rank: the head of
	// Results is exactly ranked, while the tail is ordered by
	// sketch-estimated distance (its Distance values are the sketch
	// lower-bound estimates, not exact object distances).
	Degraded bool
	// Trace carries the query's trace identity and per-stage breakdown
	// when QueryOptions.ForceTrace requested it; nil otherwise.
	Trace *TraceInfo
	// FilterMode reports which machinery served the filtering unit:
	// FilterModeIndex, FilterModeScan or FilterModeMixed (empty for
	// brute-force modes, which have no filter stage).
	FilterMode string
	// Cache reports the result cache's involvement: CacheHit (served from
	// the cache or coalesced onto a concurrent identical query), CacheMiss
	// (computed through the pipeline with the cache consulted), or ""
	// (cache disabled, or the query is uncacheable). Results of a CacheHit
	// answer are shared with other hits and must not be modified.
	Cache string
}

// TraceInfo is the per-answer trace handle: the retained trace's hex ID
// (look it up via TRACE or /debug/traces) and the aggregated stage timings.
type TraceInfo struct {
	ID     string
	Stages []trace.Stage
}

// sketchEntry is the per-object record of the in-memory sketch database.
// The sketch words and segment weights themselves live in the owning
// segment's sketchArena (see arena.go), and deletion in its tombstone bitmap;
// the entry carries identity and rec, the object's feature-vector record:
// the metadata store's own immutable value, which Engine.object views in
// place (nil in a sketch-only store). A view holding an entry keeps its
// record readable after the object is deleted or overwritten in the store.
type sketchEntry struct {
	id  object.ID
	key string
	rec []byte
}

// Engine is the core similarity search engine. Queries run lock-free on the
// published view (see segment.go); writes are serialized internally.
type Engine struct {
	cfg     Config
	meta    *metastore.Store
	attrs   *attr.Engine
	builder *sketch.Builder

	objDist func(a, b object.Object) float64
	// objDistBounded is objDist's early-abandon form (non-nil only for the
	// built-in EMD distance): it may stop once a lower bound over the
	// exact ground costs, lb, proves the distance exceeds the bound (lb >
	// bound; emd.BoundedObjectDistance).
	objDistBounded func(a, b object.Object, bound float64) (d, lb float64)
	// est[h] is the estimated segment distance at Hamming distance h;
	// estClass[h] is the least h' with est[h'] = est[h] (pairBounds).
	est      []float64
	estClass []uint32
	segDist  vector.Func
	met      *engineMetrics
	tracer   *trace.Tracer

	// GOMAXPROCS−1 helpers take query stages from jobs until quit (fanout.go).
	helpers int
	jobs    chan *fanout
	quit    chan struct{}

	// admit, when non-nil, is IngestQueued's admission (see ingest.go).
	admit *admission

	// rcache is the hot-query result cache (nil when disabled), invalidated
	// by the published view's id. See cache.go for the soundness protocol.
	rcache *resultCache

	// compactMu serializes compaction (Compact and the background merge
	// steps in compactor.go); ingestMu serializes the store commit with the
	// in-memory append and lets a full compaction freeze the mutable tail;
	// mu serializes deriving and publishing the next view (Ingest, Delete,
	// the merge swaps). Queries take none of them: they load cur.
	// Lock order: compactMu < ingestMu < mu.
	compactMu sync.Mutex
	ingestMu  sync.Mutex
	mu        sync.Mutex
	cur       atomic.Pointer[view]
	// missedDeletes counts Deletes that found no entry to tombstone (under
	// mu): an Ingest that sees it move re-checks its object before it
	// publishes.
	missedDeletes atomic.Uint64

	// Background compactor lifecycle (nil when Segments.Interval < 0);
	// compactWake (capacity 1) is how a seal wakes it between ticks.
	compactStop chan struct{}
	compactDone chan struct{}
	compactWake chan struct{}
}

// Open opens or creates an engine. On reopen, the persisted sketch builder
// is restored so new sketches stay compatible with stored ones; the
// in-memory sketch database is rebuilt from the metadata store (loadStored),
// each entry holding the store's feature-vector record.
func Open(cfg Config) (*Engine, error) {
	if cfg.Dir == "" {
		return nil, errors.New("core: Dir is required")
	}
	met := newEngineMetrics(cfg.Telemetry)
	if cfg.Store.Telemetry == nil {
		// Surface the store's health gauges (ferret_store_poisoned) in the
		// same registry as the engine metrics so one scrape covers both.
		cfg.Store.Telemetry = met.reg
	}
	meta, err := metastore.Open(cfg.Dir, cfg.Store)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, meta: meta, attrs: attr.New(meta.KV()), met: met}
	e.tracer = trace.New(cfg.Trace, met.reg)

	e.segDist = cfg.SegmentDistance
	if e.segDist == nil {
		e.segDist = vector.L1
	}
	e.objDist = cfg.ObjectDistance
	if e.objDist == nil {
		// A nil Ground lets emd use its default ℓ₁ path, which can abandon
		// thresholded ground distances early; e.segDist stays ℓ₁ for the
		// exact-filter path either way, so the semantics are unchanged.
		emdOpts := emd.Options{
			Ground:      cfg.SegmentDistance,
			Threshold:   cfg.RankThreshold,
			SqrtWeights: cfg.SqrtWeights,
		}
		e.objDist = emd.ObjectDistance(emdOpts)
		e.objDistBounded = emd.BoundedObjectDistance(emdOpts)
	}

	b, ok, err := meta.LoadBuilder()
	if err != nil {
		meta.Close()
		return nil, err
	}
	if ok {
		e.builder = b
	} else {
		b, err := sketch.NewBuilder(cfg.Sketch)
		if err != nil {
			meta.Close()
			return nil, fmt.Errorf("core: sketch params: %w", err)
		}
		if err := meta.SaveBuilder(b); err != nil {
			meta.Close()
			return nil, err
		}
		e.builder = b
	}
	e.est = estimateTable(e.builder, cfg.RankThreshold)
	e.estClass = estimateClasses(e.est)

	e.cfg.Segments = cfg.Segments.withDefaults()
	// The stored corpus loads into one segment, sealed (and indexed, once)
	// before the first view is published.
	t := &segment{arena: newArena(sketch.Words(e.builder.N()))}
	v := &view{segs: []*segment{t}}
	if err := e.loadStored(v, t); err != nil {
		meta.Close()
		return nil, err
	}
	e.met.objects.Set(int64(len(v.entries)))
	e.met.segments.Set(int64(t.arena.rows()))
	if t.n > 0 {
		e.sealTail(v)
	}
	e.met.storageSegs.Set(int64(len(v.segs)))
	e.cur.Store(v)
	if e.cfg.Segments.Interval > 0 {
		e.compactStop = make(chan struct{})
		e.compactDone = make(chan struct{})
		e.compactWake = make(chan struct{}, 1)
		go e.compactLoop()
	}
	if cfg.Ingest.Workers > 0 || cfg.Ingest.Depth > 0 {
		e.admit = newAdmission(cfg.Ingest)
	}
	if cfg.ResultCache.Enable {
		e.rcache = newResultCache(cfg.ResultCache.withDefaults(), e.met)
	}
	e.helpers, e.jobs, e.quit = runtime.GOMAXPROCS(0)-1, make(chan *fanout), make(chan struct{})
	for range e.helpers {
		go e.help(e.quit)
	}
	return e, nil
}

// Close shuts the engine down: the background compactor and the query
// helpers stop, and the metadata store is released. Callers must not race
// Ingest or IngestQueued with Close. Safe to call more than once.
func (e *Engine) Close() error {
	if e.quit != nil { // each helper takes one quit and returns
		for range e.helpers {
			e.quit <- struct{}{}
		}
		e.quit = nil
	}
	if e.compactStop != nil {
		close(e.compactStop)
		<-e.compactDone
		e.compactStop = nil
	}
	return e.meta.Close()
}

// Meta exposes the metadata manager.
func (e *Engine) Meta() *metastore.Store { return e.meta }

// Attrs exposes the attribute search engine sharing this engine's store.
func (e *Engine) Attrs() *attr.Engine { return e.attrs }

// Builder exposes the engine's sketch builder (useful for diagnostics).
func (e *Engine) Builder() *sketch.Builder { return e.builder }

// Count returns the number of live (non-deleted) objects, from a telemetry
// gauge the writers maintain.
func (e *Engine) Count() int {
	return int(e.met.objects.Value())
}

// Stats summarizes the engine's in-memory state.
type Stats struct {
	// Objects is the number of live objects.
	Objects int
	// Deleted is the number of tombstoned entries awaiting compaction.
	Deleted int
	// Segments is the number of live segment sketches.
	Segments int
	// SketchBits is the sketch size per segment.
	SketchBits int
	// SketchBytes is the total in-memory sketch storage.
	SketchBytes int
	// IndexedSegments is the Hamming indexes' row population: every row of
	// every sealed segment, tombstoned rows included until a merge drops
	// them; the tail's rows are swept, not indexed (0 when the index is
	// disabled).
	IndexedSegments int
	// HIndexTables is the substring table count of the sealed segments'
	// Hamming indexes — also how far each round of a descent widens the
	// Hamming radius it covers (0 while nothing is indexed).
	HIndexTables int
	// HIndexLoad is the mean slot occupancy of the index tables.
	HIndexLoad float64
	// StorageSegments is the storage-segment count: the sealed segments plus
	// the mutable tail (1 on an empty engine, 2 after Compact).
	StorageSegments int
}

// Stat reports engine statistics without taking a lock: the counts come
// from telemetry gauges the writers maintain, the index figures from a walk
// over the published view's segment headers.
func (e *Engine) Stat() Stats {
	segments := int(e.met.segments.Value())
	st := Stats{
		Objects:         int(e.met.objects.Value()),
		Deleted:         int(e.met.deleted.Value()),
		Segments:        segments,
		SketchBits:      e.builder.N(),
		SketchBytes:     e.sketchBytesOf(segments),
		StorageSegments: int(e.met.storageSegs.Value()),
	}
	if e.cfg.HIndex.Enable {
		sealed := e.cur.Load().sealed()
		for _, s := range sealed {
			st.HIndexTables = s.hindex.Tables()
			st.IndexedSegments += s.hindex.Rows()
			st.HIndexLoad += s.hindex.LoadFactor() / float64(len(sealed))
		}
	}
	return st
}

// Delete removes an object: its metadata is deleted transactionally and
// its entry is tombstoned in the next view (skipped by every scan and
// dropped where index candidates are verified). Tombstones are reclaimed by
// a merge, Compact or the next Open.
func (e *Engine) Delete(id object.ID) error {
	if err := e.meta.DeleteObject(id, func(txn *kvstore.Txn, id object.ID) {
		e.attrs.Delete(txn, id)
	}); err != nil {
		return err
	}
	cur := e.lockWrite()
	defer e.mu.Unlock()
	g, ok := cur.find(id)
	if !ok {
		e.missedDeletes.Add(1) // perhaps an ingest not yet published (see Ingest)
		return nil
	}
	si := cur.segIndex(g)
	seg := *cur.segs[si] // the owning segment's next header
	li := g - seg.loEntry
	if seg.dead.has(li) {
		return nil
	}
	seg.dead = seg.dead.with(li, seg.n)
	seg.deleted++
	next := *cur
	next.deleted++
	next.segs = slices.Clone(cur.segs)
	next.segs[si] = &seg
	e.met.segments.Add(-int64(seg.arena.nsegOf(li)))
	e.met.deletes.Inc()
	e.met.objects.Add(-1)
	e.met.deleted.Add(1)
	e.publish(&next)
	return nil
}

// Ingest adds one object: sketches are constructed for every segment and
// all metadata (feature vectors unless SketchOnly, sketches, key mapping,
// attributes) is committed in a single transaction.
func (e *Engine) Ingest(o object.Object, attrs attr.Attrs) (object.ID, error) {
	start := time.Now()
	if err := o.Validate(); err != nil {
		return 0, fmt.Errorf("core: invalid object %q: %w", o.Key, err)
	}
	if o.Dim() != e.builder.Dim() {
		return 0, fmt.Errorf("core: object %q has dimension %d, engine expects %d", o.Key, o.Dim(), e.builder.Dim())
	}
	set := e.buildSketchSet(o)
	var extra func(txn *kvstore.Txn, id object.ID)
	if len(attrs) > 0 {
		extra = func(txn *kvstore.Txn, id object.ID) { e.attrs.Set(txn, id, attrs) }
	}
	// ingestMu serializes the store commit with the in-memory append, so
	// entries stay in ID order and a full compaction can freeze the tail by
	// holding it.
	e.ingestMu.Lock()
	missed := e.missedDeletes.Load()
	id, rec, err := e.meta.AddObjectRecord(o, set, e.cfg.SketchOnly, extra)
	if err != nil {
		e.ingestMu.Unlock()
		if errors.Is(err, kvstore.ErrPoisoned) {
			// The store can no longer fsync: reject instead of retrying into
			// a wall. The server maps this to a distinct wire error.
			e.met.ingestRejected.Inc()
		}
		return 0, err
	}
	cur := e.lockWrite()
	// A Delete that found no entry since the commit may have deleted this
	// object by ID before it was published: then none is.
	if e.missedDeletes.Load() == missed || e.meta.Key(id) != "" {
		e.publish(e.appended(cur, sketchEntry{id: id, key: o.Key, rec: rec}, set.Weights, set.Sketches))
		e.met.objects.Add(1)
		e.met.segments.Add(int64(len(set.Sketches)))
	}
	e.mu.Unlock()
	e.ingestMu.Unlock()
	e.met.ingests.Inc()
	e.met.ingestTime.ObserveSince(start)
	return id, nil
}

// SearchByID runs a similarity query using an already-ingested object as
// the query object. In SketchOnly databases only sketch modes are
// meaningful.
func (e *Engine) SearchByID(ctx context.Context, id object.ID, opt QueryOptions) (Answer, error) {
	if opt.K <= 0 {
		opt.K = 10
	}
	// The cache fast path comes before any metadata fetch: a hit serves
	// repeat queries without decoding the stored object (the id pins the
	// query content), which keeps this path allocation-free.
	if key, ok := e.idCacheKey(id, &opt); ok {
		if ans, hit := e.cacheLookup(key, opt.Trace); hit {
			return ans, nil
		}
		return e.flightCompute(ctx, key, func() (Answer, error) {
			return e.searchByID(ctx, id, opt)
		})
	}
	return e.searchByID(ctx, id, opt)
}

// searchByID resolves the stored object (or its sketch set in sketch-only
// stores) and runs the pipeline without consulting the cache. The query
// object's segments are viewed in place over the store's immutable record
// (metastore.ViewRecord) into the scratch's pooled buffer, not copied, and
// its sketches are the published view's own arena rows (storedSketches),
// not built again; only an object the view does not hold yet has them built.
func (e *Engine) searchByID(ctx context.Context, id object.ID, opt QueryOptions) (Answer, error) {
	sc := getScratch()
	defer putScratch(sc)
	return e.searchByIDIn(ctx, sc, id, opt)
}

// searchByIDIn is searchByID on a scratch the caller got (and puts back).
func (e *Engine) searchByIDIn(ctx context.Context, sc *queryScratch, id object.ID, opt QueryOptions) (Answer, error) {
	set := sc.storedSketches(e.cur.Load(), id)
	if rec, ok := e.meta.ObjectRecord(id); ok {
		var err error
		if sc.qsegs, err = metastore.ViewRecord(rec, sc.qsegs); err == nil {
			return e.searchIn(ctx, sc, &object.Object{ID: id, Segments: sc.qsegs}, set, opt)
		}
	}
	// Sketch-only store: the stored sketches stand in for the query's.
	if set == nil {
		var ok bool
		if set, ok = e.meta.GetSketchSet(id); !ok {
			return Answer{}, fmt.Errorf("core: no object with id %d", id)
		}
	}
	return e.searchIn(ctx, sc, nil, set, opt)
}

// storedSketches views live entry id's sketch set in v — its arena rows and
// weights — into the scratch's pooled set, or returns nil when v holds no
// live entry id.
func (sc *queryScratch) storedSketches(v *view, id object.ID) *metastore.SketchSet {
	g, ok := v.find(id)
	if !ok || v.isDead(g) {
		return nil
	}
	seg, li := v.segOf(g)
	lo, hi := seg.arena.rowsOf(li)
	sc.stored.Weights = seg.arena.weight[lo:hi]
	for i := range resize(&sc.stored.Sketches, hi-lo) {
		sc.stored.Sketches[i] = seg.arena.at(lo + i)
	}
	return &sc.stored
}

// Search runs a similarity search for the query object q (typically the
// output of the plug-in segmentation and feature extraction unit applied to
// the query data). The context cancels the search between scan blocks and
// rank evaluations; opt.Budget bounds its execution time with graceful
// degradation (see QueryOptions.Budget). Stage timings (sketch build,
// filter, rank) and pipeline counters are recorded in the engine's
// telemetry registry.
func (e *Engine) Search(ctx context.Context, q object.Object, opt QueryOptions) (Answer, error) {
	if opt.K <= 0 {
		opt.K = 10
	}
	if key, ok := e.objectCacheKey(&q, &opt); ok {
		if ans, hit := e.cacheLookup(key, opt.Trace); hit {
			return ans, nil
		}
		return e.flightCompute(ctx, key, func() (Answer, error) {
			return e.search(ctx, &q, opt)
		})
	}
	return e.search(ctx, &q, opt)
}

// cacheLookup is the result cache's fast path for Search and SearchByID: a
// hit is a whole query (counted, timed and traced as one); a miss is counted
// and left to flightCompute.
func (e *Engine) cacheLookup(key cacheKey, tr *trace.Active) (Answer, bool) {
	start := time.Now()
	ans, hit := e.rcache.get(key, e.cur.Load().id)
	if !hit {
		e.met.cacheMisses.Inc()
		return Answer{}, false
	}
	e.met.cacheHits.Inc()
	e.met.queries.Inc()
	e.met.queryTime.ObserveSince(start)
	tr.Record(StageCache, start, time.Since(start))
	ans.Cache = CacheHit
	return ans, true
}

// search runs one uncached query through the pipeline on the calling
// goroutine with pooled scratch. opt.K must already be resolved.
func (e *Engine) search(ctx context.Context, q *object.Object, opt QueryOptions) (Answer, error) {
	sc := getScratch()
	defer putScratch(sc)
	return e.searchIn(ctx, sc, q, nil, opt)
}

// searchIn is search on a scratch the caller got (and puts back). q is nil
// for a by-ID query of a sketch-only store; qset, when not nil, is the
// stored sketch set that stands in for the query's.
func (e *Engine) searchIn(ctx context.Context, sc *queryScratch, q *object.Object, qset *metastore.SketchSet, opt QueryOptions) (Answer, error) {
	if err := e.checkQuery(q); err != nil {
		e.met.queryErrors.Inc()
		return Answer{}, err
	}
	e.met.inflight.Add(1)
	defer e.met.inflight.Add(-1)
	defer rtrace.StartRegion(ctx, "ferret.search").End()
	e.begin(ctx, sc, q, qset, opt)
	e.run(sc)
	return e.finish(sc)
}

// checkQuery validates a query object against the engine's feature space
// (nil, a stored sketch set's stand-in, has nothing to check).
func (e *Engine) checkQuery(q *object.Object) error {
	if q == nil {
		return nil
	}
	if err := q.Validate(); err != nil {
		return fmt.Errorf("core: invalid query object: %w", err)
	}
	if q.Dim() != e.builder.Dim() {
		return fmt.Errorf("core: query dimension %d, engine expects %d", q.Dim(), e.builder.Dim())
	}
	return nil
}

// begin loads one validated query into its scratch: it arms the trace,
// stamps the start time and builds the query's sketches unless the caller
// supplied the stored ones, timing the sketch stage either way.
func (e *Engine) begin(ctx context.Context, sc *queryScratch, q *object.Object, qset *metastore.SketchSet, opt QueryOptions) {
	sc.ctx, sc.opt, sc.qset = ctx, opt, qset
	sc.trp = e.armTrace(&sc.opt, &sc.own)
	sc.start = time.Now()
	if q != nil {
		sc.q, sc.hasQ = *q, !e.cfg.SketchOnly
	}
	if qset == nil {
		sc.bwords = e.sketchInto(&sc.built, sc.bwords, sc.q.Segments)
		sc.qset = &sc.built
	}
	e.met.stageSketch.ObserveSince(sc.start)
	sc.trp.Record(StageSketch, sc.start, time.Since(sc.start))
}

// finish converts a request that has been through run into the Search
// return values, recording the per-query metrics and finishing an
// engine-armed trace.
func (e *Engine) finish(sc *queryScratch) (Answer, error) {
	if sc.err != nil {
		e.met.queryErrors.Inc()
		sc.own.Finish()
		return Answer{}, sc.err
	}
	ans := sc.ans
	if ans.Degraded {
		e.met.degraded.Inc()
		// Budget-degraded queries always land in the slow-query log, no
		// matter how fast they finished: slowness was traded for budget.
		sc.trp.MarkSlow()
		sc.trp.Root().SetAttr("degraded", 1)
	}
	e.met.queries.Inc()
	e.met.queryTime.ObserveSince(sc.start)
	finishOwnTrace(&sc.own, sc.opt.ForceTrace, &ans)
	return ans, nil
}

// armTrace resolves which trace buffer a query records into: the caller's
// (QueryOptions.Trace) or the engine-armed own buffer, force-retained when
// the query asked for its trace back.
func (e *Engine) armTrace(opt *QueryOptions, own *trace.Active) *trace.Active {
	if opt.Trace != nil {
		return opt.Trace
	}
	e.tracer.Begin(own, "search")
	if opt.ForceTrace {
		own.Force()
	}
	return own
}

// finishOwnTrace finishes an engine-armed trace, first attaching its
// identity and stage breakdown to the answer when the query forced
// retention. Safe (and a no-op) when own was never armed.
func finishOwnTrace(own *trace.Active, force bool, ans *Answer) {
	if force && own.Armed() {
		ans.Trace = &TraceInfo{ID: own.ID().String(), Stages: own.Stages()}
	}
	own.Finish()
}

// run executes one query on one view of the engine: it loads the published
// view once — the query path takes no lock — runs the filtering unit, then
// ranks. The brute-force modes are the paper's other algorithms and run
// through their own stage. The outcome is left in the scratch (ans or err).
func (e *Engine) run(sc *queryScratch) {
	sc.clk.reset(sc.ctx, sc.opt.Budget)
	v := e.cur.Load()
	switch p := e.filterParams(&sc.opt); {
	case sc.opt.Mode != Filtering:
		e.rankEvery(v, sc)
		return
	case p.ExactDistance:
		e.filterExact(v, sc, p.withDefaults(len(sc.qset.Sketches), sc.opt.K))
	default:
		e.filter(v, sc)
	}
	e.rankStage(v, sc)
}

// rankStage runs the ranking unit over a filtered request's candidate set,
// timing the stage, and settles its outcome.
func (e *Engine) rankStage(v *view, sc *queryScratch) {
	if sc.err != nil {
		return
	}
	defer rtrace.StartRegion(sc.ctx, "ferret.rank").End()
	tr := time.Now()
	results, degraded := e.rankCandidates(v, sc)
	e.met.stageRank.ObserveSince(tr)
	sc.trp.Record(StageRank, tr, time.Since(tr)).
		SetAttr("evals", int64(sc.rankEvals)).
		SetAttr("pruned", int64(sc.rankPruned)).
		SetAttr("cands", int64(len(sc.cands))).
		SetAttr("abandoned", int64(sc.rankAbandoned)).
		SetAttr("workers", int64(sc.rankWorkers))
	sc.settle(results, degraded)
}

// rankEvery runs the brute-force modes: every live, unrestricted object is
// ranked with the accurate object distance (BruteForceOriginal) or with
// sketch-estimated segment distances (BruteForceSketch). They have no
// candidate tail to fall back on, so a budget expiry degrades to "best of
// the prefix scanned in time".
func (e *Engine) rankEvery(v *view, sc *queryScratch) {
	tr := time.Now()
	var results []Result
	switch {
	case sc.opt.Mode == BruteForceSketch:
		results = e.rankAllSketch(v, sc)
	case sc.opt.Mode != BruteForceOriginal:
		sc.err = fmt.Errorf("core: unknown mode %d", sc.opt.Mode)
		return
	case !sc.hasQ:
		sc.err = errors.New("core: BruteForceOriginal unavailable in sketch-only mode")
		return
	default:
		results = e.rankAll(v, sc)
	}
	e.met.stageRank.ObserveSince(tr)
	sc.trp.Record(StageRank, tr, time.Since(tr))
	sc.settle(results, sc.clk.budgetHit())
}

// buildSketchSet returns q's segment weights and sketches in a set of its
// own, the sketches in one backing array.
func (e *Engine) buildSketchSet(q object.Object) *metastore.SketchSet {
	set := new(metastore.SketchSet)
	e.sketchInto(set, nil, q.Segments)
	return set
}

// sketchInto fills set with segs' weights and sketches, reusing set's
// slices. The sketches are built into words, one backing array grown when
// short, which sketchInto returns for the caller to keep.
func (e *Engine) sketchInto(set *metastore.SketchSet, words []uint64, segs []object.Segment) []uint64 {
	wps := sketch.Words(e.builder.N())
	resize(&set.Weights, len(segs))
	resize(&set.Sketches, len(segs))
	resize(&words, len(segs)*wps)
	for i, seg := range segs {
		w := words[i*wps : (i+1)*wps : (i+1)*wps]
		e.builder.BuildTo(w, seg.Vec)
		set.Weights[i], set.Sketches[i] = seg.Weight, w
	}
	return words
}

// rankAll is BruteForceOriginal: the accurate object distance against every
// (non-restricted) object.
func (e *Engine) rankAll(v *view, sc *queryScratch) []Result {
	return e.rankScan(v, sc, func(i int) float64 { return e.objDist(sc.q, e.object(v, i, &sc.segs)) })
}

// object returns entry idx's object, its segments viewed in place over the
// entry's record (metastore.ViewRecord) into *segs, the calling worker's
// buffer: they are valid until its next call. Not for a sketch-only store.
func (e *Engine) object(v *view, idx int, segs *[]object.Segment) object.Object {
	ent := &v.entries[idx]
	*segs, _ = metastore.ViewRecord(ent.rec, *segs) // Open and Ingest checked the record
	return object.Object{ID: ent.id, Key: ent.key, Segments: *segs}
}

// loadStored fills t, v's one segment, from each object's one persisted
// source: its feature-vector record, whose sketches the persisted builder
// derives again (deterministically, DESIGN §3) straight into the arena
// rows, or a sketch-only object's sketch set. The sources size t's arena
// exactly; GOMAXPROCS workers then fill disjoint entry ranges of it.
func (e *Engine) loadStored(v *view, t *segment) error {
	type source struct {
		ent  sketchEntry
		set  *metastore.SketchSet // a sketch-only object's; nil for a record
		nseg int32
	}
	var srcs []source
	var segs []object.Segment
	var err error
	a := &t.arena
	e.meta.ForEachObjectRecord(func(id object.ID, key, rec []byte) bool {
		if segs, err = metastore.ViewRecord(rec, segs); err != nil {
			err = fmt.Errorf("core: object %d: %w", id, err)
		}
		srcs = append(srcs, source{ent: sketchEntry{id: id, key: string(key), rec: rec}, nseg: int32(len(segs))})
		return err == nil
	})
	// Sketch sets follow the records in ID order: a store holding one does not
	// open as a vector store, so no record is newer.
	records := len(srcs)
	e.meta.ForEachSketchSet(func(id object.ID, set *metastore.SketchSet) bool {
		srcs = append(srcs, source{ent: sketchEntry{id: id}, set: set, nseg: int32(len(set.Sketches))})
		return true
	})
	if err == nil && records < len(srcs) && !e.cfg.SketchOnly {
		err = fmt.Errorf("core: object %d has no feature-vector record (a sketch-only store?)", srcs[records].ent.id)
	}
	if err != nil {
		return err
	}
	a.start = make([]int32, len(srcs)+1)
	for i := range srcs {
		a.start[i+1] = a.start[i] + srcs[i].nseg
	}
	rows := int(a.start[len(srcs)])
	a.words, a.entry, a.weight = make([]uint64, rows*a.wps), make([]int32, rows), make([]float32, rows)
	v.entries, t.n = make([]sketchEntry, len(srcs)), len(srcs)
	workers := min(runtime.GOMAXPROCS(0), len(srcs))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			var segs []object.Segment
			for i := w * len(srcs) / workers; i < (w+1)*len(srcs)/workers; i++ {
				set, ent, lo, hi := srcs[i].set, &v.entries[i], int(a.start[i]), int(a.start[i+1])
				if *ent = srcs[i].ent; set == nil {
					// Straight into the arena rows: no set in between.
					segs, _ = metastore.ViewRecord(ent.rec, segs) // viewed cleanly above
					for j, seg := range segs {
						a.weight[lo+j] = seg.Weight
						e.builder.BuildTo(a.at(lo+j), seg.Vec)
					}
				} else {
					ent.key = e.meta.Key(ent.id)
					copy(a.weight[lo:hi], set.Weights)
					for j, sk := range set.Sketches {
						copy(a.at(lo+j), sk)
					}
				}
				for r := lo; r < hi; r++ {
					a.entry[r] = int32(i)
				}
				if e.cfg.SketchOnly {
					ent.rec = nil
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// rankAllSketch is BruteForceSketch: sketch-estimated object distance
// against every object.
func (e *Engine) rankAllSketch(v *view, sc *queryScratch) []Result {
	return e.rankScan(v, sc, func(i int) float64 { return e.sketchObjectDistanceAt(v, sc.qset, i) })
}

// rankScan runs a distance function over every live, unrestricted entry of
// the view, keeping the global top K. The query clock is checked every rankCheckStride entries: context
// cancellation aborts the scan (the caller surfaces the error), budget
// expiry stops it early — the caller reads the latched expiry (budgetHit)
// and marks the answer degraded.
func (e *Engine) rankScan(v *view, sc *queryScratch, distance func(idx int) float64) []Result {
	restrict := sc.opt.Restrict
	top := newTopK(sc.opt.K)
	evals := 0
	for i := range v.entries {
		if i%rankCheckStride == 0 && (sc.clk.stop() || sc.clk.overBudget()) {
			break
		}
		ent := &v.entries[i]
		if v.isDead(i) || (restrict != nil && !restrict[ent.id]) {
			continue
		}
		evals++
		top.push(Result{ID: ent.id, Key: ent.key, Distance: distance(i)})
	}
	e.met.emdEvals.Add(evals)
	e.met.heapTrims.Add(top.trims)
	return top.sorted()
}

const infinity = 1e300
