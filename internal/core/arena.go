package core

import (
	"fmt"

	"ferret/internal/sketch"
)

// sketchArena is the in-memory sketch database in structure-of-arrays form:
// every segment sketch of every object packed back to back in one
// contiguous word slice, plus flat per-row side tables. The filtering
// unit's hot loop iterates arena rows with pure index arithmetic — no
// per-segment slice headers, no pointer chases, no interface calls — which
// is what makes the sketch scan cheap enough to dominate query cost
// reduction (paper §4.1.1, §6.3.3).
//
// Layout: row r (one segment sketch) occupies words[r*wps : (r+1)*wps].
// Entry i owns the contiguous row range [start[i], start[i+1]); entry[r]
// points back to the owning entry and weight[r] carries the segment weight,
// so scans and the ranking unit never touch the per-entry records for
// sketch data.
//
// Mutation protocol: a sketchArena value is four slice headers. Only the tail
// segment's arena grows, and only by appending — under the writer mutex, past
// the lengths of every header published so far (or into a grown copy) — so a
// header a reader holds stays valid and unchanged forever. Deletes mark the
// owning segment's tombstone bitmap; a merge builds a fresh arena without the
// dead rows (see segment.go).
type sketchArena struct {
	wps    int       // words per segment sketch: sketch.Words(N)
	words  []uint64  // len = rows()*wps, row-major
	start  []int32   // len = #entries+1: entry i owns rows [start[i], start[i+1])
	entry  []int32   // per-row owning entry index
	weight []float32 // per-row segment weight
}

func newArena(wps int) sketchArena {
	return sketchArena{wps: wps, start: []int32{0}}
}

// rows returns the total number of segment rows (tombstoned included).
func (a *sketchArena) rows() int { return len(a.entry) }

// rowsOf returns entry idx's row range [lo, hi).
func (a *sketchArena) rowsOf(idx int) (int, int) {
	return int(a.start[idx]), int(a.start[idx+1])
}

// nsegOf returns entry idx's segment count.
func (a *sketchArena) nsegOf(idx int) int {
	return int(a.start[idx+1] - a.start[idx])
}

// at returns row r's sketch as a view into the arena.
func (a *sketchArena) at(row int) sketch.Sketch {
	off := row * a.wps
	return sketch.Sketch(a.words[off : off+a.wps])
}

// appendEntry adds the next entry's segments. Entries must be appended in
// entry-index order (the engine appends under its writer mutex).
func (a *sketchArena) appendEntry(weights []float32, sketches []sketch.Sketch) {
	entryIdx := int32(len(a.start) - 1)
	for i, sk := range sketches {
		if len(sk) != a.wps {
			panic(fmt.Sprintf("core: sketch has %d words, arena expects %d", len(sk), a.wps))
		}
		a.words = append(a.words, sk...)
		a.entry = append(a.entry, entryIdx)
		a.weight = append(a.weight, weights[i])
	}
	a.start = append(a.start, int32(len(a.entry)))
}

// appendFrom appends one entry's row range [lo, hi) from another arena with
// the same words-per-sketch geometry — the segment merge builder's bulk
// copy (see compactor.go).
func (a *sketchArena) appendFrom(src *sketchArena, lo, hi int) {
	entryIdx := int32(len(a.start) - 1)
	a.words = append(a.words, src.words[lo*src.wps:hi*src.wps]...)
	for r := lo; r < hi; r++ {
		a.entry = append(a.entry, entryIdx)
		a.weight = append(a.weight, src.weight[r])
	}
	a.start = append(a.start, int32(len(a.entry)))
}

// checkInvariants verifies the arena's internal consistency against an
// entry count — used by tests and cheap enough for debug assertions.
func (a *sketchArena) checkInvariants(nEntries int) error {
	if len(a.start) != nEntries+1 {
		return fmt.Errorf("arena: %d start offsets for %d entries", len(a.start), nEntries)
	}
	if a.start[0] != 0 {
		return fmt.Errorf("arena: start[0] = %d", a.start[0])
	}
	rows := a.rows()
	if int(a.start[nEntries]) != rows {
		return fmt.Errorf("arena: start[last] = %d, rows = %d", a.start[nEntries], rows)
	}
	if len(a.words) != rows*a.wps {
		return fmt.Errorf("arena: %d words for %d rows × %d wps", len(a.words), rows, a.wps)
	}
	if len(a.weight) != rows {
		return fmt.Errorf("arena: %d weights for %d rows", len(a.weight), rows)
	}
	for idx := 0; idx < nEntries; idx++ {
		lo, hi := a.rowsOf(idx)
		if lo > hi {
			return fmt.Errorf("arena: entry %d has negative row range [%d, %d)", idx, lo, hi)
		}
		for r := lo; r < hi; r++ {
			if int(a.entry[r]) != idx {
				return fmt.Errorf("arena: row %d backref %d, want %d", r, a.entry[r], idx)
			}
		}
	}
	return nil
}
