package core

import (
	"math"
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

// segHeap keeps the k nearest dataset segments for one query segment: a
// bounded max-heap ordered on the (hamming, entry) pair. Once full, its
// root (the worst kept pair) tightens the acceptance bound, so scans over
// large datasets reject most segments with a single comparison.
//
// The lexicographic pair order is a strict total order, which makes the
// final heap content the k smallest pairs regardless of push order. That
// order-independence is what lets the Hamming-index descent and the arena
// sweep — over one arena or many storage segments — return bit-identical
// candidate sets: they visit rows in different orders but converge on the
// same k pairs (TestHIndexScanEquivalence relies on this; with ties broken
// by arrival order instead, eviction under equal distances would depend on
// the visit schedule).
type segHeap struct {
	k     int
	entry []int // owning entry index per slot
	ham   []int // hamming distance per slot; slot 0 is the max
}

func newSegHeap(k int) *segHeap {
	return &segHeap{k: k, entry: make([]int, 0, k), ham: make([]int, 0, k)}
}

// reset prepares a pooled heap for reuse with capacity k, keeping its
// backing arrays.
func (h *segHeap) reset(k int) {
	h.k = k
	h.entry = h.entry[:0]
	h.ham = h.ham[:0]
}

// worst returns the current rejection bound: a push with a distance above
// it cannot enter a full heap, and a push at it enters only if its entry
// index beats the root's in the pair order. Kernel prefilters therefore
// accept rows at distance ≤ worst() and let push settle ties.
func (h *segHeap) worst() int {
	if len(h.ham) < h.k {
		return int(^uint(0) >> 1) // max int: heap not yet full
	}
	return h.ham[0]
}

// full reports whether the heap holds k pairs.
func (h *segHeap) full() bool { return len(h.ham) >= h.k }

// pairLess orders (ham, entry) pairs lexicographically.
func pairLess(ham1, entry1, ham2, entry2 int) bool {
	return ham1 < ham2 || (ham1 == ham2 && entry1 < entry2)
}

// push offers one (entry, hamming) pair.
//
//ferret:noalloc
func (h *segHeap) push(entry, hamming int) {
	if len(h.ham) < h.k {
		h.entry = append(h.entry, entry)
		h.ham = append(h.ham, hamming)
		// Sift up.
		i := len(h.ham) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !pairLess(h.ham[parent], h.entry[parent], h.ham[i], h.entry[i]) {
				break
			}
			h.ham[parent], h.ham[i] = h.ham[i], h.ham[parent]
			h.entry[parent], h.entry[i] = h.entry[i], h.entry[parent]
			i = parent
		}
		return
	}
	if !pairLess(hamming, entry, h.ham[0], h.entry[0]) {
		return
	}
	h.ham[0] = hamming
	h.entry[0] = entry
	// Sift down.
	i, n := 0, len(h.ham)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && pairLess(h.ham[largest], h.entry[largest], h.ham[l], h.entry[l]) {
			largest = l
		}
		if r < n && pairLess(h.ham[largest], h.entry[largest], h.ham[r], h.entry[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.ham[i], h.ham[largest] = h.ham[largest], h.ham[i]
		h.entry[i], h.entry[largest] = h.entry[largest], h.entry[i]
		i = largest
	}
}

// items returns the kept entry indices (duplicates possible when one object
// owns several near segments; the caller's candidate-set union dedups).
func (h *segHeap) items() []int {
	return h.entry
}
