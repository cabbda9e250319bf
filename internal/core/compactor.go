package core

import (
	"runtime"
	"slices"
	"time"

	"ferret/internal/hindex"
	"ferret/internal/sketch"
)

// The segment compactor. Two entry points share one merge:
//
//   - Compact() is the user-facing full compaction: every segment (the
//     mutable tail included) is merged into one sealed, indexed,
//     tombstone-free segment, leaving an empty tail. It freezes ingest
//     (ingestMu) for the duration; Delete and queries proceed.
//   - compactStep() is one background step: it merges the first run of
//     adjacent sealed segments of one size tier, or rewrites the first
//     tombstone-heavy sealed segment alone. The tail is never touched, so
//     ingest proceeds concurrently; per-segment, never stop-the-world.
//
// A merge reads its input segments from a view — immutable, so the build
// needs no lock and no copy of the tombstone flags — and only the final swap
// takes the writer mutex. Lock order (pinned at run time by
// TestSnapshotStress): compactMu < ingestMu < e.mu. compactMu serializes all
// mergers, so sealed segments change position and global entry numbering
// shifts only under a merger's own swap: a seal appends behind the inputs
// and a Delete replaces a segment's header in place, which is how the swap
// finds the tombstones set since its snapshot.
//
// Durability: merges move no committed state — the metadata store is the
// source of truth and deleted objects already left it at Delete time. Merges
// that reclaimed tombstones are followed by a store checkpoint, folding the
// WAL into a fresh snapshot — right away after Compact, on the next Interval
// tick in the background (a checkpoint stalls commits for tens of
// milliseconds, so a burst of merges shares one); the crash-torture suite
// drives faults through exactly this merge→checkpoint boundary.

// compactStepHook, when non-nil, is called once per merge-build stride.
// Tests use it to hold a compaction mid-build (TestQueriesDuringCompact);
// it must only be set while no compaction can be running.
var compactStepHook func()

// compactStride is how many entries a merge build copies between pacing
// checks.
const compactStride = 64

// compactPace yields the merge builder to in-flight queries: with queries
// running, each stride yields the processor; idle engines build at full
// speed.
func (e *Engine) compactPace() {
	if compactStepHook != nil {
		compactStepHook()
	}
	if e.met.inflight.Value() > 0 {
		runtime.Gosched()
	}
}

// buildMerged concatenates the input segments' live entries into one fresh
// arena (densely renumbered, original order preserved) plus, when the engine
// is indexed, its Hamming index. Runs outside any lock, paced against query
// load.
func (e *Engine) buildMerged(snaps []*segment) (sketchArena, *hindex.Index) {
	// Sized exactly first, like every sealed arena.
	entries, rows := 0, 0
	for _, sn := range snaps {
		for li := 0; li < sn.n; li++ {
			if !sn.dead.has(li) {
				entries++
				rows += sn.arena.nsegOf(li)
			}
		}
	}
	wps := sketch.Words(e.builder.N())
	merged := sketchArena{
		wps:    wps,
		words:  make([]uint64, 0, rows*wps),
		start:  append(make([]int32, 0, entries+1), 0),
		entry:  make([]int32, 0, rows),
		weight: make([]float32, 0, rows),
	}
	copied := 0
	for _, sn := range snaps {
		for li := 0; li < sn.n; li++ {
			if sn.dead.has(li) {
				continue
			}
			lo, hi := sn.arena.rowsOf(li)
			merged.appendFrom(&sn.arena, lo, hi)
			if copied++; copied%compactStride == 0 {
				e.compactPace()
			}
		}
	}
	return merged, e.buildIndex(&merged, e.compactPace)
}

// swapMerged derives from cur the view in which the merged segment replaces
// the inputs — cur's segments [si, si+len(snaps)), the same segments as snaps
// but for tombstones set since. Those are carried over as tombstones of the
// merged segment (its index keeps the rows; the filter drops them), the
// entry array is rebuilt without the reclaimed entries, and later
// segments get headers shifted down by that many. Merging the tail leaves a
// fresh empty one. Returns the view and the number of tombstones reclaimed.
// Caller holds compactMu and e.mu.
func (e *Engine) swapMerged(cur *view, si int, snaps []*segment, merged sketchArena, idx *hindex.Index) (*view, int) {
	gLo := snaps[0].loEntry
	gHi := snaps[len(snaps)-1].loEntry + snaps[len(snaps)-1].n
	reclaimed := 0
	for _, sn := range snaps {
		reclaimed += sn.deleted
	}

	next := &view{
		entries: append(make([]sketchEntry, 0, len(cur.entries)-reclaimed), cur.entries[:gLo]...),
		segs:    slices.Clone(cur.segs[:si]),
	}
	ms := &segment{loEntry: gLo, arena: merged, hindex: idx}
	for k, sn := range snaps {
		now := cur.segs[si+k]
		for li := 0; li < sn.n; li++ {
			if sn.dead.has(li) {
				continue
			}
			if now.dead.has(li) { // tombstoned while the merge was building
				if ms.dead == nil {
					ms.dead = make(tombstones, (gHi-gLo-reclaimed+63)/64)
				}
				ms.dead[ms.n>>6] |= 1 << (uint(ms.n) & 63)
				ms.deleted++
			}
			next.entries = append(next.entries, cur.entries[sn.loEntry+li])
			ms.n++
		}
	}
	next.entries = append(next.entries, cur.entries[gHi:]...)
	next.deleted = cur.deleted - reclaimed

	if ms.n > 0 {
		next.segs = append(next.segs, ms)
	}
	for _, s := range cur.segs[si+len(snaps):] {
		shifted := *s
		shifted.loEntry -= reclaimed
		next.segs = append(next.segs, &shifted)
	}
	if si+len(snaps) == len(cur.segs) { // the tail was merged too
		next.segs = append(next.segs, &segment{loEntry: gLo + ms.n, arena: newArena(merged.wps)})
	}
	return next, reclaimed
}

// merge builds the replacement for the view's segments [si, si+len(snaps))
// outside any lock, swaps it in under the writer mutex and publishes.
// Returns the number of tombstones reclaimed. Caller holds compactMu.
func (e *Engine) merge(si int, snaps []*segment) int {
	merged, idx := e.buildMerged(snaps)
	next, reclaimed := e.swapMerged(e.lockWrite(), si, snaps, merged, idx)
	e.met.deleted.Set(int64(next.deleted))
	e.publish(next)
	e.mu.Unlock()
	return reclaimed
}

// Compact merges every segment into one sealed, tombstone-free segment and
// leaves an empty tail; on an engine already in that shape it does nothing.
// Ingest is frozen for the duration (ingestMu), but queries and deletes keep
// running: the merge builds outside the writer mutex, which is held only
// for the final swap. Reclaimed tombstones are folded into a store
// checkpoint so the WAL shrinks with the in-memory state.
func (e *Engine) Compact() {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()

	v := e.cur.Load()
	if v.deleted == 0 && len(v.segs) <= 2 && v.tail().n == 0 {
		return
	}
	e.checkpointAfterMerge(e.merge(0, v.segs))
	e.met.compacts.Inc()
}

// pickMerge chooses the background compactor's next unit from a view: the
// first mergeSegments adjacent sealed segments of one size tier — the largest
// under mergeSegments times the smallest, sizes counted in live entries and
// no smaller than SealEntries — else the first sealed segment whose tombstone
// fraction reached tombstoneFrac (solo rewrite). Merging equals with equals
// leaves O(log corpus) sealed segments — every indexed query probes each of
// them — and rewrites an entry once per tier. Deterministic, so torture
// schedules replay exactly. Returns the run's first position in the segment
// list and its length, 0 when nothing is eligible.
func (e *Engine) pickMerge(v *view) (int, int) {
	sealed := v.sealed()
	for i := 0; i+mergeSegments <= len(sealed); i++ {
		lo, hi := sealed[i].liveEntries(), sealed[i].liveEntries()
		for _, s := range sealed[i+1 : i+mergeSegments] {
			lo, hi = min(lo, s.liveEntries()), max(hi, s.liveEntries())
		}
		if hi < mergeSegments*max(lo, e.cfg.Segments.SealEntries) {
			return i, mergeSegments
		}
	}
	for i, s := range sealed {
		if s.deleted > 0 && float64(s.deleted) >= tombstoneFrac*float64(s.n) {
			return i, 1
		}
	}
	return 0, 0
}

// compactStep runs one background compaction step: merge one eligible run
// of sealed segments (or rewrite one tombstone-heavy segment) and swap it
// in. The mutable tail is untouched, so ingest never blocks behind a merge.
// Returns whether a merge ran and how many tombstones it reclaimed.
func (e *Engine) compactStep() (bool, int) {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()

	v := e.cur.Load()
	si, n := e.pickMerge(v)
	if n == 0 {
		return false, 0
	}
	reclaimed := e.merge(si, v.segs[si:si+n])
	e.met.merges.Inc()
	return true, reclaimed
}

// checkpointAfterMerge folds reclaimed tombstones into a store checkpoint:
// the in-memory state shrank, so the WAL's delete records can fold into a
// fresh snapshot. Checkpoint failures are not fatal here — the store
// either recovers the same state from the old checkpoint + WAL, or has
// poisoned itself (fsync failure), which the next Ingest surfaces.
func (e *Engine) checkpointAfterMerge(reclaimed int) {
	if reclaimed == 0 {
		return
	}
	if err := e.meta.Checkpoint(); err != nil && e.cfg.Store.Logger != nil {
		e.cfg.Store.Logger.Error("post-merge checkpoint failed", "err", err.Error())
	}
}

// compactLoop is the background compactor goroutine: woken by every seal and
// every Interval tick (tombstones accrue without seals), it runs compaction
// steps until none is eligible, each paced against query load inside its
// build; a tick also checkpoints what the steps since the last one reclaimed.
// Started by Open unless Segments.Interval is negative; stopped by Close.
func (e *Engine) compactLoop() {
	defer close(e.compactDone)
	t := time.NewTicker(e.cfg.Segments.Interval)
	defer t.Stop()
	reclaimed := 0
	for {
		tick := false
		select {
		case <-e.compactStop:
			return
		case <-t.C:
			tick = true
		case <-e.compactWake:
		}
		for {
			ran, n := e.compactStep()
			reclaimed += n
			if !ran {
				break
			}
			select {
			case <-e.compactStop:
				return
			default:
			}
		}
		if tick {
			e.checkpointAfterMerge(reclaimed)
			reclaimed = 0
		}
	}
}
