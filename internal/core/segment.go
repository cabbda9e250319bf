package core

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"ferret/internal/hindex"
	"ferret/internal/sketch"
	"ferret/internal/vector"
)

// The LSM-flavored segmented sketch store, published to queries as immutable
// snapshots. Writes land in a small unindexed tail segment while sealed,
// indexed segments serve queries; a background compactor merges sealed
// segments of like size, tier by tier, and rewrites tombstone-heavy ones (see
// compactor.go).
// The filtering unit — index descent and arena sweep alike — iterates
// storage segments and, like the ranking unit, addresses entries by their
// global index, so answers are bit-identical no matter how the corpus
// happens to be segmented (TestSegmentedEquivalence).
//
// Publication protocol: the engine's whole read state is one *view behind
// Engine.cur. A query loads it once and takes no lock; nothing reachable
// from a published view is ever written again. A writer (Ingest, Delete,
// sealTail, the merge swaps) holds Engine.mu, derives the next view from the
// current one and swaps the pointer:
//
//   - appends write past every published slice length (or into a grown
//     copy) and publish longer slice headers over the same backing arrays,
//   - a delete publishes a copy of the owning segment's tombstone bitmap
//     with one more bit set,
//   - a seal builds the tail's Hamming index — once — and opens an empty
//     tail behind it; the index is never edited, and the filter drops
//     tombstoned candidates where it verifies them,
//   - a merge swap publishes a fresh entry array and new headers for
//     the segments whose global offsets moved.
//
// Geometry: segment s owns the contiguous global entry range
// [s.loEntry, s.loEntry+s.n); its arena, tombstone bitmap and Hamming index
// use local row and entry numbering. Invariants are checked by
// Engine.checkSegInvariants.

// defaultSealEntries bounds the unindexed tail when the caller does not: a
// full tail of 1024 one-segment 800-bit sketches adds ~16 µs to a 280 µs
// shape_wire_cold query, 2048 adds 34 µs (EXPERIMENTS.md "Snapshot reads").
const defaultSealEntries = 1024

// SegmentParams configures the segmented ingest pipeline. Every field has a
// default, so the zero value is a working pipeline.
type SegmentParams struct {
	// SealEntries is the mutable tail segment's capacity: once the tail
	// holds this many entries it is sealed (indexed and made immutable) and a
	// fresh empty tail is opened. The tail is swept, never probed, so this
	// bounds the unindexed part of every query. 0 means 1024.
	SealEntries int
	// MergeSegments is the background compactor's fan-in: this many adjacent
	// sealed segments of one size tier (the largest under MergeSegments times
	// the smallest) are merged into one, so an online-fed corpus settles into
	// a logarithmic number of segments. 0 means 4; values below 2 are clamped
	// to 2.
	MergeSegments int
	// TombstoneFrac triggers a solo rewrite of a sealed segment whose dead
	// fraction reaches it, reclaiming tombstoned rows without waiting for a
	// merge run. 0 means 0.25.
	TombstoneFrac float64
	// Interval is the background compactor's wake-up cadence between seals
	// (every seal wakes it too). 0 means 1s; negative disables the background
	// goroutine (merges then only run when tests call compactOnce directly —
	// the deterministic-schedule hook the crash-torture suite relies on).
	Interval time.Duration
	// Pace is how long each merge-build stride sleeps when queries are in
	// flight, yielding merge CPU to the serving path. 0 yields the
	// processor without sleeping.
	Pace time.Duration
}

func (p SegmentParams) withDefaults() SegmentParams {
	if p.SealEntries <= 0 {
		p.SealEntries = defaultSealEntries
	}
	if p.MergeSegments <= 0 {
		p.MergeSegments = 4
	}
	if p.MergeSegments < 2 {
		p.MergeSegments = 2
	}
	if p.TombstoneFrac <= 0 {
		p.TombstoneFrac = 0.25
	}
	if p.Interval == 0 {
		p.Interval = time.Second
	}
	return p
}

// tombstones is a segment's deleted-entry bitmap in local numbering,
// copy-on-write: a published bitmap is never written. It may be shorter than
// the segment (nil when nothing is deleted; a tail keeps growing past it).
type tombstones []uint64

//ferret:noalloc
func (t tombstones) has(li int) bool {
	w := li >> 6
	return w < len(t) && t[w]>>(uint(li)&63)&1 != 0
}

// with returns a copy covering n entries with entry li marked.
func (t tombstones) with(li, n int) tombstones {
	out := make(tombstones, max(len(t), (n+63)/64))
	copy(out, t)
	out[li>>6] |= 1 << (uint(li) & 63)
	return out
}

// segment is one storage segment as of one view: a contiguous run of entries
// with its own sketch arena, tombstone bitmap and — once sealed, when the
// engine is indexed — Hamming index, all in local numbering. Immutable once
// published; a change to a segment publishes a new header.
type segment struct {
	loEntry int // global index of this segment's first entry
	n       int // entries in this segment (tombstoned included)
	deleted int // tombstoned entries in this segment

	arena  sketchArena   // local row storage (slice headers frozen at publication)
	dead   tombstones    // which local entries are deleted
	hindex *hindex.Index // built at seal/merge; nil on the tail or when disabled
}

// liveEntries returns the segment's non-tombstoned entry count.
func (s *segment) liveEntries() int { return s.n - s.deleted }

// probed reports whether queries consult the segment's Hamming index.
func (s *segment) probed() bool { return s.hindex != nil && s.liveEntries() > 0 }

// view is the engine's read state at one instant: the flat per-object
// records in global numbering and the storage segments tiling them. Queries
// run on the view they loaded, whatever is published after it.
type view struct {
	// id is the publication clock: every published view has the previous
	// one's id plus one, so it is also the result cache's invalidation
	// clock (see cache.go).
	id      uint64
	entries []sketchEntry // per-object records, ascending ID order
	// segs tiles entries: the sealed segments, then the mutable tail (always
	// present, possibly empty). Copy-on-write, like the headers it points to.
	segs    []*segment
	deleted int // tombstones across all segments
}

func (v *view) tail() *segment     { return v.segs[len(v.segs)-1] }
func (v *view) sealed() []*segment { return v.segs[:len(v.segs)-1] }

// segIndex locates the segment owning global entry index g.
//
//ferret:noalloc
func (v *view) segIndex(g int) int {
	lo, hi := 0, len(v.segs)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if v.segs[mid].loEntry <= g {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// segOf returns the segment owning global entry index g with g's
// segment-local entry index.
//
//ferret:noalloc
func (v *view) segOf(g int) (*segment, int) {
	s := v.segs[v.segIndex(g)]
	return s, g - s.loEntry
}

// prefetchStart hints entry g's arena start offsets into cache.
func (v *view) prefetchStart(g int) {
	s, li := v.segOf(g)
	vector.Prefetch(s.arena.start[li : li+2])
}

// prefetchRows hints entry g's arena sketch rows into cache.
func (v *view) prefetchRows(g int) {
	s, li := v.segOf(g)
	a := &s.arena
	lo, hi := a.rowsOf(li)
	vector.Prefetch(a.words[lo*a.wps : hi*a.wps])
}

// isDead reports whether global entry g is tombstoned.
func (v *view) isDead(g int) bool {
	if v.deleted == 0 {
		return false
	}
	s, li := v.segOf(g)
	return s.dead.has(li)
}

// lockWrite takes the writer-side mutex, recording how long the caller
// waited for it, and returns the current view for the caller to derive the
// next one from.
func (e *Engine) lockWrite() *view {
	start := time.Now()
	e.mu.Lock()
	e.met.writeWait.ObserveSince(start)
	//lint:ignore lockpath the acquire half of the writer protocol: every caller releases e.mu after publishing
	return e.cur.Load()
}

// publish makes next the engine's read state. Caller holds e.mu and derived
// next from the view lockWrite returned.
func (e *Engine) publish(next *view) {
	prev := e.cur.Load()
	next.id = prev.id + 1
	e.cur.Store(next)
	e.met.viewPublishes.Inc()
	e.met.storageSegs.Set(int64(len(next.segs)))
	if len(next.segs) > len(prev.segs) { // a seal: wake the background compactor
		select {
		case e.compactWake <- struct{}{}: // nil (never ready) without one
		default:
		}
	}
}

// buildIndex indexes every row of a finished arena (nil when the engine is
// unindexed); pace, when non-nil, is called between strides.
func (e *Engine) buildIndex(a *sketchArena, pace func()) *hindex.Index {
	if !e.cfg.HIndex.Enable {
		return nil
	}
	ix := hindex.New(e.builder.N(), a.wps, 0)
	for row := 0; row < a.rows(); row++ {
		ix.Insert(int32(row), a.words)
		if pace != nil && (row+1)%(compactStride*4) == 0 {
			pace()
		}
	}
	return ix
}

// appended derives from cur the view with one more object at the tail,
// sealing the tail and opening a fresh one when it reaches capacity. The
// caller holds e.mu and publishes the result.
func (e *Engine) appended(cur *view, ent sketchEntry, weights []float32, sketches []sketch.Sketch) *view {
	next := *cur
	next.entries = append(cur.entries, ent)
	t := *cur.tail()
	t.arena.appendEntry(weights, sketches)
	t.n++
	next.segs = slices.Clone(cur.segs)
	next.segs[len(next.segs)-1] = &t
	if t.n >= e.cfg.Segments.SealEntries {
		e.sealTail(&next)
		e.met.seals.Inc()
	}
	return &next
}

// sealTail indexes v's tail, which thereby becomes the last sealed segment,
// and opens an empty tail behind it. v is a view under construction that owns
// its segment list and tail header; the seal is purely an in-memory
// transition (the entries' durability comes from the metadata store's WAL,
// which committed them at ingest time).
func (e *Engine) sealTail(v *view) {
	t := v.tail()
	t.hindex = e.buildIndex(&t.arena, nil)
	v.segs = append(v.segs, &segment{loEntry: t.loEntry + t.n, arena: newArena(t.arena.wps)})
}

// checkSegInvariants verifies a view's segment tiling, per-segment arena
// consistency, index coverage and tombstone accounting, and that no sealed
// segment shares the arrays the tail still appends to — used by tests and the
// crash-torture suite after every recovery.
func (e *Engine) checkSegInvariants(v *view) error {
	next, dead := 0, 0
	tail := v.tail()
	for si, s := range v.segs {
		if s.loEntry != next {
			return fmt.Errorf("segments: segment %d starts at %d, want %d", si, s.loEntry, next)
		}
		if err := s.arena.checkInvariants(s.n); err != nil {
			return fmt.Errorf("segments: segment %d: %w", si, err)
		}
		switch sealed := s != tail; {
		case sealed && s.n == 0:
			return fmt.Errorf("segments: sealed segment %d is empty", si)
		case sealed && e.cfg.HIndex.Enable && (s.hindex == nil || s.hindex.Rows() != s.arena.rows()):
			return fmt.Errorf("segments: sealed segment %d's index does not cover its %d rows", si, s.arena.rows())
		case sealed && &s.arena.start[0] == &tail.arena.start[0]:
			return fmt.Errorf("segments: sealed segment %d shares the tail's arena", si)
		case !sealed && s.hindex != nil:
			return fmt.Errorf("segments: the tail is indexed")
		}
		segDead := 0
		for _, w := range s.dead {
			segDead += bits.OnesCount64(w)
		}
		if segDead != s.deleted || len(s.dead) > (s.n+63)/64 {
			return fmt.Errorf("segments: segment %d counts %d deleted, its %d-word bitmap holds %d", si, s.deleted, len(s.dead), segDead)
		}
		next += s.n
		dead += segDead
	}
	if next != len(v.entries) {
		return fmt.Errorf("segments: segments tile %d entries, engine has %d", next, len(v.entries))
	}
	// Delete finds an entry by binary search on its ID.
	for i := range v.entries {
		if i > 0 && v.entries[i].id <= v.entries[i-1].id {
			return fmt.Errorf("segments: entry %d has id %d after id %d, want ascending", i, v.entries[i].id, v.entries[i-1].id)
		}
		if (v.entries[i].rec == nil) != e.cfg.SketchOnly {
			return fmt.Errorf("segments: entry %d (id %d) holds a record: %t", i, v.entries[i].id, v.entries[i].rec != nil)
		}
	}
	if dead != v.deleted || int64(dead) != e.met.deleted.Value() {
		return fmt.Errorf("segments: %d tombstones across segments, view counts %d, gauge %d", dead, v.deleted, e.met.deleted.Value())
	}
	return nil
}
