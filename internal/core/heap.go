package core

import (
	"math"
	"slices"
	"sort"
)

// topK keeps the K smallest-distance results seen so far in a bounded
// max-heap (the root is the current worst kept result). trims counts
// evictions of the worst kept result by a better one — the ranking unit
// publishes it to the ferret_rank_heap_trims_total telemetry counter.
type topK struct {
	k     int
	items []Result
	trims int
}

func newTopK(k int) *topK {
	return &topK{k: k, items: make([]Result, 0, k)}
}

func (t *topK) push(r Result) {
	if len(t.items) < t.k {
		t.items = append(t.items, r)
		t.up(len(t.items) - 1)
		return
	}
	if r.Distance >= t.items[0].Distance {
		return
	}
	t.items[0] = r
	t.trims++
	t.down(0)
}

func (t *topK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.items[parent].Distance >= t.items[i].Distance {
			break
		}
		t.items[parent], t.items[i] = t.items[i], t.items[parent]
		i = parent
	}
}

func (t *topK) down(i int) {
	n := len(t.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && t.items[l].Distance > t.items[largest].Distance {
			largest = l
		}
		if r < n && t.items[r].Distance > t.items[largest].Distance {
			largest = r
		}
		if largest == i {
			return
		}
		t.items[i], t.items[largest] = t.items[largest], t.items[i]
		i = largest
	}
}

// full reports whether the heap holds K results.
func (t *topK) full() bool { return len(t.items) >= t.k }

// bound returns the ranking unit's prune/abandon bound — the current kth
// distance, or +Inf until the heap is full.
func (t *topK) bound() float64 {
	if len(t.items) < t.k {
		return math.Inf(1)
	}
	return t.items[0].Distance
}

// sorted returns the kept results in ascending distance order (ties broken
// by ID for determinism).
func (t *topK) sorted() []Result {
	out := append([]Result(nil), t.items...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance < out[j].Distance {
			return true
		}
		if out[i].Distance > out[j].Distance {
			return false
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// segHeap keeps the k nearest dataset segments for one query segment under
// the (hamming, entry) pair order, as an integer bucket queue: distances are
// 0…N for N-bit sketches, so a count per distance replaces a comparison heap.
// Pairs at or under the cut-off c are appended; when the k-th arrives, c
// becomes the k-th smallest distance, and after that c walks down while the
// pairs below it number k or more. c is thus always the k-th smallest pushed
// distance, counted with multiplicity — the root distance of a bounded
// max-heap of the k smallest pairs — so worst() and full() are that heap's
// bounds after every push. Pairs left above c are dropped lazily.
//
// The pair order is a strict total order on distinct pairs, so the kept set
// is the k smallest pairs regardless of push order. That is what lets the
// Hamming-index descent and the arena sweep — over one arena or many
// storage segments — return bit-identical candidate sets: they visit rows in
// different orders but converge on the same k pairs (TestHIndexScanEquivalence
// relies on this; ties broken by arrival order would make eviction under
// equal distances depend on the visit schedule).
type segHeap struct {
	k, c  int      // capacity; cut-off distance, maxInt until k pairs were pushed
	n     int      // pairs pushed, saturating at k
	below int      // pushed pairs below c, once full
	cnt   []int32  // pushed pairs per distance, 0…N; stale above c
	pairs []uint64 // pushed pairs at or under c when pushed, as pairKeys
}

// pairKey packs a (hamming, entry) pair into one integer in pair order: the
// distance above the entry's 32 bits (entry indices stay far below 2³² in
// any corpus that fits in memory).
func pairKey(hamming, entry int) uint64 { return uint64(hamming)<<32 | uint64(uint32(entry)) }

// reset prepares a pooled heap for reuse with capacity k and distances 0…n,
// keeping its backing arrays.
func (h *segHeap) reset(k, n int) {
	h.k, h.c, h.n, h.below = k, math.MaxInt, 0, 0
	clear(resize(&h.cnt, n+1))
	h.pairs = h.pairs[:0]
}

// worst returns the current rejection bound: a push with a distance above
// it cannot enter a full heap, and a push at it enters only if its entry
// index beats a kept one in the pair order. Kernel prefilters therefore
// accept rows at distance ≤ worst() and let push settle ties.
func (h *segHeap) worst() int { return h.c }

// full reports whether the heap holds k pairs.
func (h *segHeap) full() bool { return h.n >= h.k }

// push offers one (entry, hamming) pair.
//
//ferret:noalloc
func (h *segHeap) push(entry, hamming int) {
	if hamming > h.c {
		return
	}
	h.pairs = append(h.pairs, pairKey(hamming, entry))
	h.cnt[hamming]++
	if h.n < h.k {
		if h.n++; h.n == h.k {
			for h.c = 0; h.below+int(h.cnt[h.c]) < h.k; h.c++ {
				h.below += int(h.cnt[h.c])
			}
		}
	} else if hamming < h.c {
		for h.below++; h.below >= h.k; h.below -= int(h.cnt[h.c]) {
			h.c--
		}
	}
	if len(h.pairs) >= 4*h.k {
		h.items()
	}
}

// items trims the pushed pairs to the kept ones and returns them as
// pairKeys: every pair below c and the smallest k−below at c, k in all once
// full, with multiplicity (one entry may appear more than once when it owns
// several near segments; the caller's candidate-set union dedups). A pair
// dropped here has k smaller ones ahead of it and c only falls, so it could
// never be kept again.
//
//ferret:noalloc
func (h *segHeap) items() []uint64 {
	if !h.full() {
		return h.pairs
	}
	lo, at := 0, len(h.pairs) // below c from the front, at c from the back
	for i := 0; i < at; {
		switch p := h.pairs[i]; {
		case int(p>>32) < h.c:
			h.pairs[lo] = p
			lo, i = lo+1, i+1
		case int(p>>32) == h.c:
			at--
			h.pairs[i], h.pairs[at] = h.pairs[at], p
		default:
			i++
		}
	}
	ties := h.pairs[at:]
	slices.Sort(ties)
	h.pairs = h.pairs[:lo+copy(h.pairs[lo:], ties[:h.k-h.below])]
	return h.pairs
}
