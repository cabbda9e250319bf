package core

import (
	"fmt"
	"time"

	"ferret/internal/hindex"
	"ferret/internal/sketch"
)

// The LSM-flavored segmented sketch store. Writes land in a small mutable
// tail segment while sealed immutable segments serve queries; a background
// compactor merges runs of small sealed segments and rewrites
// tombstone-heavy ones, swapping the merged segment in atomically under a
// short critical section (see compactor.go). The filtering unit — index
// descent and arena sweep alike — iterates storage segments and, like the
// ranking unit, addresses entries by their global index, so answers are
// bit-identical to a single-arena engine no matter how the corpus happens
// to be segmented (TestSegmentedEquivalence).
//
// Geometry: segment s owns the contiguous global entry range
// [s.loEntry, s.loEntry+s.n); its arena and Hamming index use local row and
// entry numbering. The engine's flat entries/objects slices stay global, so
// the ranking unit and all ID-based bookkeeping are segmentation-blind.
// Invariants (checked by checkSegInvariants): segments tile [0, len(entries))
// in order, only the last segment is unsealed, per-segment tombstone counts
// sum to e.deleted, and entry IDs ascend.

// SegmentParams configures the segmented ingest pipeline. The zero value
// (SealEntries == 0) keeps the engine in single-arena mode: one mutable
// segment, no sealing, no background compaction — exactly the pre-segmented
// behavior.
type SegmentParams struct {
	// SealEntries is the mutable tail segment's capacity: once the tail
	// holds this many entries it is sealed (made immutable) and a fresh
	// empty tail is opened. 0 disables sealing entirely.
	SealEntries int
	// MergeSegments is the background compactor's trigger: a run of at
	// least this many adjacent small sealed segments is merged into one.
	// 0 means 4; values below 2 are clamped to 2.
	MergeSegments int
	// TombstoneFrac triggers a solo rewrite of a sealed segment whose dead
	// fraction reaches it, reclaiming tombstoned rows without waiting for a
	// merge run. 0 means 0.25.
	TombstoneFrac float64
	// Interval is the background compactor's wake-up cadence. 0 means 1s;
	// negative disables the background goroutine (merges then only run when
	// tests call compactOnce directly — the deterministic-schedule hook the
	// crash-torture suite relies on).
	Interval time.Duration
	// Pace is how long each merge-build stride sleeps when queries are in
	// flight, yielding merge CPU to the serving path. 0 yields the
	// processor without sleeping.
	Pace time.Duration
}

func (p SegmentParams) withDefaults() SegmentParams {
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

// segment is one storage segment: a contiguous run of entries with its own
// sketch arena and (optional) Hamming index, both in local numbering.
// Sealed segments are immutable except for tombstone flags (which live in
// the engine's global entry records) and the deleted counter; only the
// unsealed tail accepts appends. All fields are guarded by the engine's
// RWMutex.
type segment struct {
	loEntry int  // global index of this segment's first entry
	n       int  // entries in this segment (tombstoned included)
	deleted int  // tombstoned entries in this segment
	sealed  bool // immutable: no more appends

	arena  *sketchArena  // local row storage
	hindex *hindex.Index // per-segment Hamming index (nil when disabled)
}

// liveEntries returns the segment's non-tombstoned entry count.
func (s *segment) liveEntries() int { return s.n - s.deleted }

// newSegment creates an empty mutable segment starting at global entry
// loEntry, with its own Hamming index when the engine has one configured.
func (e *Engine) newSegment(loEntry int) *segment {
	s := &segment{loEntry: loEntry, arena: newArena(sketch.Words(e.builder.N()))}
	if e.cfg.HIndex.Enable {
		s.hindex = hindex.New(e.builder.N(), s.arena.wps, e.cfg.HIndex.Tables)
	}
	return s
}

// tail returns the mutable tail segment. Caller holds e.mu.
func (e *Engine) tail() *segment { return e.segs[len(e.segs)-1] }

// segOf locates the segment owning global entry index g and returns it with
// g's segment-local entry index. Caller holds e.mu (read or write).
//
//ferret:noalloc
func (e *Engine) segOf(g int) (*segment, int) {
	segs := e.segs
	lo, hi := 0, len(segs)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if segs[mid].loEntry <= g {
			lo = mid
		} else {
			hi = mid
		}
	}
	return segs[lo], g - segs[lo].loEntry
}

// totalRows sums arena rows (tombstoned included) across segments.
func (e *Engine) totalRows() int {
	rows := 0
	for _, s := range e.segs {
		rows += s.arena.rows()
	}
	return rows
}

// indexedRows sums the per-segment Hamming indexes' populations.
func (e *Engine) indexedRows() int {
	rows := 0
	for _, s := range e.segs {
		if s.hindex != nil {
			rows += s.hindex.Rows()
		}
	}
	return rows
}

// appendToTail appends one object's sketches to the mutable tail segment —
// arena rows plus per-segment index rows — sealing the tail and opening a
// fresh one when it reaches the configured capacity. Caller holds the
// engine write lock (or is inside Open, before the engine is shared).
func (e *Engine) appendToTail(weights []float32, sketches []sketch.Sketch) {
	t := e.tail()
	t.arena.appendEntry(weights, sketches)
	if t.hindex != nil {
		lo, hi := t.arena.rowsOf(t.n)
		for row := lo; row < hi; row++ {
			t.hindex.Insert(int32(row), t.arena.words)
		}
	}
	t.n++
	if e.cfg.Segments.SealEntries > 0 && t.n >= e.cfg.Segments.SealEntries {
		e.sealTail()
	}
}

// sealTail seals the mutable tail and opens a fresh empty one. Caller holds
// the engine write lock; the seal is purely an in-memory transition (the
// entries' durability comes from the metadata store's WAL, which committed
// them at ingest time).
func (e *Engine) sealTail() {
	t := e.tail()
	t.sealed = true
	e.segs = append(e.segs, e.newSegment(t.loEntry+t.n))
	e.met.seals.Inc()
	e.met.storageSegs.Set(int64(len(e.segs)))
	e.epoch.Add(1)
}

// checkSegInvariants verifies the segment tiling, per-segment arena
// consistency and tombstone accounting against the flat entry slice — the
// segmented analogue of sketchArena.checkInvariants, used by tests and the
// crash-torture suite after every recovery.
func (e *Engine) checkSegInvariants() error {
	if len(e.segs) == 0 {
		return fmt.Errorf("segments: engine has no segments")
	}
	next, dead := 0, 0
	for si, s := range e.segs {
		if s.loEntry != next {
			return fmt.Errorf("segments: segment %d starts at %d, want %d", si, s.loEntry, next)
		}
		if s.sealed && si == len(e.segs)-1 {
			return fmt.Errorf("segments: tail segment is sealed")
		}
		if !s.sealed && si != len(e.segs)-1 {
			return fmt.Errorf("segments: interior segment %d is unsealed", si)
		}
		if err := s.arena.checkInvariants(s.n); err != nil {
			return fmt.Errorf("segments: segment %d: %w", si, err)
		}
		segDead := 0
		for li := 0; li < s.n; li++ {
			if e.entries[s.loEntry+li].dead {
				segDead++
			}
		}
		if segDead != s.deleted {
			return fmt.Errorf("segments: segment %d counts %d deleted, entries say %d", si, s.deleted, segDead)
		}
		if s.hindex != nil {
			liveRows := 0
			for li := 0; li < s.n; li++ {
				if !e.entries[s.loEntry+li].dead {
					liveRows += s.arena.nsegOf(li)
				}
			}
			if s.hindex.Rows() != liveRows {
				return fmt.Errorf("segments: segment %d indexes %d rows, want %d live", si, s.hindex.Rows(), liveRows)
			}
		}
		next += s.n
		dead += segDead
	}
	if next != len(e.entries) {
		return fmt.Errorf("segments: segments tile %d entries, engine has %d", next, len(e.entries))
	}
	// Delete finds an entry by binary search on its ID.
	for i := 1; i < len(e.entries); i++ {
		if e.entries[i].id <= e.entries[i-1].id {
			return fmt.Errorf("segments: entry %d has id %d after id %d, want ascending", i, e.entries[i].id, e.entries[i-1].id)
		}
	}
	if dead != e.deleted {
		return fmt.Errorf("segments: %d tombstones across segments, engine counts %d", dead, e.deleted)
	}
	return nil
}
