package core

import (
	"container/list"
	"context"
	"math"
	"sync"

	"ferret/internal/object"
)

// This file implements the engine-level hot-query result cache: exact
// answers keyed on (query identity, canonicalized options) and invalidated
// by the published view's id.
//
// Soundness. Every change to what a query can see (Ingest, Delete, seal,
// compaction swap) publishes a new view whose id is the previous one's plus
// one. A computing query loads the current id BEFORE it starts — so the view
// its pipeline then loads is that one or a later one — and the finished
// answer is admitted tagged with that pre-compute id; a lookup serves an
// entry only when the entry's id equals the current view's. A write racing
// with the compute therefore can only make the entry unservable (recorded id
// < current), never let a pre-write answer outlive the write: once a write
// has published, every cached answer that could predate it carries a smaller
// id and misses. The cost of this conservatism is extra misses around
// writes, not staleness.
//
// Degraded answers are never admitted (they depend on the per-query time
// budget); consequently every cached answer is an exact, complete answer
// and is valid for any budget, so Budget is excluded from the key.
// Restricted (attribute-combined) and force-traced queries bypass the
// cache entirely.

// CacheHit and CacheMiss are the values of Answer.Cache when the result
// cache was consulted.
const (
	CacheHit  = "hit"
	CacheMiss = "miss"
)

// ResultCacheParams configures the engine's hot-query result cache (the
// zero value disables it). The cache serves head-of-distribution repeat
// queries without touching the filter/rank pipeline; see cache.go for the
// invalidation protocol.
type ResultCacheParams struct {
	// Enable turns the cache on.
	Enable bool
	// MaxBytes bounds the cache's resident memory (keys + result rows,
	// approximate accounting). 0 means 8 MiB.
	MaxBytes int
}

// maxCacheEntries caps the result cache's entry count.
const maxCacheEntries = 4096

func (p ResultCacheParams) withDefaults() ResultCacheParams {
	if p.MaxBytes <= 0 {
		p.MaxBytes = 8 << 20
	}
	return p
}

// canonOpts is the canonical, comparable form of the options that affect a
// query's exact answer. Semantically equal spellings (zero values vs
// explicit defaults, engine-config fallbacks vs per-query overrides) map
// to the same canonOpts so they share one cache entry; Budget is excluded
// (cached answers are never degraded, hence budget-independent).
type canonOpts struct {
	mode   Mode
	k      int
	filter FilterParams
}

// cacheKey identifies one cacheable query. byID queries key on the stored
// object's identity; ad-hoc object queries key on a 128-bit content hash
// of the query's weighted feature vectors (two independently seeded
// FNV-1a streams).
type cacheKey struct {
	byID   bool
	id     object.ID
	h1, h2 uint64
	opt    canonOpts
}

// canonOpt resolves opt into its canonical form: the filter stage's own
// resolution (FilterParams.withDefaults) minus the per-query segment-count
// cap, which depends only on query content — and the content is already
// part of the key.
func (e *Engine) canonOpt(opt *QueryOptions) canonOpts {
	c := canonOpts{mode: opt.Mode, k: opt.K}
	if opt.Mode == Filtering {
		c.filter = e.filterParams(opt).withDefaults(math.MaxInt, opt.K)
	}
	return c
}

// cacheableOpt reports whether the engine can cache answers for opt at
// all: Restrict sets are caller-owned (not hashable by identity) and
// ForceTrace answers carry per-execution trace identities.
func (e *Engine) cacheableOpt(opt *QueryOptions) bool {
	return e.rcache != nil && opt.Restrict == nil && !opt.ForceTrace
}

// idCacheKey keys a query-by-stored-object. The id pins the query content
// (stored sketches are immutable; deletes publish a new view), so no content
// hash is needed — which keeps the cached-QUERY hot path allocation-free.
func (e *Engine) idCacheKey(id object.ID, opt *QueryOptions) (cacheKey, bool) {
	if !e.cacheableOpt(opt) {
		return cacheKey{}, false
	}
	return cacheKey{byID: true, id: id, opt: e.canonOpt(opt)}, true
}

// objectCacheKey keys an ad-hoc query object by content.
func (e *Engine) objectCacheKey(q *object.Object, opt *QueryOptions) (cacheKey, bool) {
	if !e.cacheableOpt(opt) {
		return cacheKey{}, false
	}
	h1, h2 := hashObjectContent(q)
	return cacheKey{h1: h1, h2: h2, opt: e.canonOpt(opt)}, true
}

const (
	fnvOffset1 = 14695981039346656037
	fnvOffset2 = 0x9e3779b97f4a7c15 // alternate basis: golden-ratio constant
	fnvPrime   = 1099511628211
)

func fnvPair(h1, h2, v uint64) (uint64, uint64) {
	for i := 0; i < 8; i++ {
		b := v & 0xff
		v >>= 8
		h1 = (h1 ^ b) * fnvPrime
		h2 = (h2 ^ b) * fnvPrime
	}
	return h1, h2
}

// hashObjectContent hashes the query-relevant content of an object — the
// per-segment weights and feature vectors, by bit pattern — into a 128-bit
// digest. Key and ID are excluded: equal content is the same query.
func hashObjectContent(q *object.Object) (uint64, uint64) {
	h1, h2 := uint64(fnvOffset1), uint64(fnvOffset2)
	h1, h2 = fnvPair(h1, h2, uint64(len(q.Segments)))
	for i := range q.Segments {
		s := &q.Segments[i]
		h1, h2 = fnvPair(h1, h2, uint64(math.Float32bits(s.Weight))<<32|uint64(len(s.Vec)))
		for _, v := range s.Vec {
			h1, h2 = fnvPair(h1, h2, uint64(math.Float32bits(v)))
		}
	}
	return h1, h2
}

// cacheEntry is one admitted answer. size is its approximate resident
// footprint, charged against ResultCacheParams.MaxBytes.
type cacheEntry struct {
	key   cacheKey
	epoch uint64 // id of the view current when the compute began
	ans   Answer
	size  int
}

// cacheFlight coalesces concurrent misses on one key (single-flight
// admission): the first miss becomes the leader and computes; concurrent
// misses for the same key wait for the leader instead of duplicating the
// pipeline work.
type cacheFlight struct {
	done  chan struct{}
	epoch uint64 // current view id when the flight was registered
	ans   Answer
	err   error
	ok    bool // ans is sharable: no error, not degraded
}

// resultCache is the LRU store. The entry map and recency list share one
// mutex (held for a map probe and a list splice — nanoseconds); flights
// have their own, taken only on misses.
type resultCache struct {
	maxBytes int
	met      *engineMetrics

	mu      sync.Mutex
	entries map[cacheKey]*list.Element // of *cacheEntry
	lru     list.List                  // front = most recent
	bytes   int

	fmu     sync.Mutex
	flights map[cacheKey]*cacheFlight
}

func newResultCache(p ResultCacheParams, met *engineMetrics) *resultCache {
	c := &resultCache{
		maxBytes: p.MaxBytes,
		met:      met,
		entries:  make(map[cacheKey]*list.Element),
		flights:  make(map[cacheKey]*cacheFlight),
	}
	return c
}

// get returns the cached answer for key if one exists at exactly the given
// view id. A stale entry (any mismatch) is removed and counted as an
// invalidation.
func (c *resultCache) get(key cacheKey, epoch uint64) (Answer, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return Answer{}, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.epoch != epoch {
		c.removeLocked(el, ent)
		c.met.cacheInvalidated.Inc()
		c.publishLocked()
		c.mu.Unlock()
		return Answer{}, false
	}
	c.lru.MoveToFront(el)
	ans := ent.ans
	c.mu.Unlock()
	return ans, true
}

// put admits an answer computed against the given pre-compute view id.
// Degraded answers must not be offered (callers guard); oversized answers
// are skipped rather than flushing the whole cache.
func (c *resultCache) put(key cacheKey, epoch uint64, ans Answer) {
	ans.Trace = nil // trace identity belongs to the computing request
	ans.Cache = ""
	size := cacheEntrySize(&ans)
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el, el.Value.(*cacheEntry))
	}
	ent := &cacheEntry{key: key, epoch: epoch, ans: ans, size: size}
	c.entries[key] = c.lru.PushFront(ent)
	c.bytes += size
	for c.bytes > c.maxBytes || len(c.entries) > maxCacheEntries {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back, back.Value.(*cacheEntry))
		c.met.cacheEvictions.Inc()
	}
	c.publishLocked()
	c.mu.Unlock()
}

func (c *resultCache) removeLocked(el *list.Element, ent *cacheEntry) {
	c.lru.Remove(el)
	delete(c.entries, ent.key)
	c.bytes -= ent.size
}

// publishLocked refreshes the size gauges; callers hold c.mu.
func (c *resultCache) publishLocked() {
	c.met.cacheEntries.Set(int64(len(c.entries)))
	c.met.cacheBytes.Set(int64(c.bytes))
}

// cacheEntrySize approximates an entry's resident footprint: the fixed
// entry/key/list overhead plus the result rows and their key strings.
func cacheEntrySize(ans *Answer) int {
	const fixed = 256
	size := fixed
	for i := range ans.Results {
		size += 40 + len(ans.Results[i].Key)
	}
	return size
}

// flightCompute runs compute with single-flight admission for key. The
// leader loads the view id before computing and admits its answer when it
// is exact (no error, not degraded). A waiter shares the leader's answer
// only when the id at its own arrival matched the leader's — otherwise a
// write published between the leader's start and the waiter's arrival, and
// sharing would serve the waiter a pre-write answer; it computes
// independently instead, as it does when the leader errors or degrades.
func (e *Engine) flightCompute(ctx context.Context, key cacheKey, compute func() (Answer, error)) (Answer, error) {
	c := e.rcache
	c.fmu.Lock()
	if f, ok := c.flights[key]; ok {
		joinEpoch := e.cur.Load().id
		c.fmu.Unlock()
		if joinEpoch == f.epoch {
			select {
			case <-f.done:
				if f.ok {
					e.met.cacheCoalesced.Inc()
					ans := f.ans
					ans.Cache = CacheHit
					return ans, nil
				}
			case <-ctx.Done():
				return Answer{}, ctx.Err()
			}
		}
		ans, err := compute()
		if err == nil {
			ans.Cache = CacheMiss
		}
		return ans, err
	}
	f := &cacheFlight{done: make(chan struct{}), epoch: e.cur.Load().id}
	c.flights[key] = f
	c.fmu.Unlock()

	ans, err := compute()
	f.ans, f.err = ans, err
	f.ok = err == nil && !ans.Degraded
	c.fmu.Lock()
	delete(c.flights, key)
	c.fmu.Unlock()
	close(f.done)
	if f.ok {
		c.put(key, f.epoch, ans)
	}
	if err == nil {
		ans.Cache = CacheMiss
	}
	return ans, err
}
