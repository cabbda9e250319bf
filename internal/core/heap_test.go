package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// newSegHeap returns an empty segHeap for k pairs of distances 0…n.
func newSegHeap(k, n int) *segHeap {
	h := new(segHeap)
	h.reset(k, n)
	return h
}

// refSegHeap is the bounded binary max-heap on (hamming, entry) pairs that
// segHeap's bucket queue replaced, kept as its reference: once full, its
// root is the worst kept pair.
type refSegHeap struct {
	k          int
	entry, ham []int
}

func (h *refSegHeap) worst() int {
	if len(h.ham) < h.k {
		return int(^uint(0) >> 1)
	}
	return h.ham[0]
}

func (h *refSegHeap) full() bool { return len(h.ham) >= h.k }

func (h *refSegHeap) less(i, j int) bool { return pairLess(h.ham[i], h.entry[i], h.ham[j], h.entry[j]) }

func (h *refSegHeap) swap(i, j int) {
	h.ham[i], h.ham[j] = h.ham[j], h.ham[i]
	h.entry[i], h.entry[j] = h.entry[j], h.entry[i]
}

func pairLess(ham1, entry1, ham2, entry2 int) bool {
	return ham1 < ham2 || (ham1 == ham2 && entry1 < entry2)
}

func (h *refSegHeap) push(entry, hamming int) {
	if len(h.ham) < h.k {
		h.entry, h.ham = append(h.entry, entry), append(h.ham, hamming)
		for i := len(h.ham) - 1; i > 0 && h.less((i-1)/2, i); i = (i - 1) / 2 {
			h.swap(i, (i-1)/2)
		}
		return
	}
	if !pairLess(hamming, entry, h.ham[0], h.entry[0]) {
		return
	}
	h.ham[0], h.entry[0] = hamming, entry
	for i, n := 0, len(h.ham); ; {
		largest := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < n && h.less(largest, c) {
				largest = c
			}
		}
		if largest == i {
			return
		}
		h.swap(i, largest)
		i = largest
	}
}

// TestSegHeapMatchesBinaryHeap feeds random push streams to segHeap and the
// binary heap it replaced: ties, repeated (hamming, entry) pairs, distances
// 0–800, k from 1 to 200, and resets — between streams and, as a descent
// that falls back to the sweep does, mid-stream — that reuse the bucket
// queue's arrays at other widths. worst() and full() must agree after every push — the
// kernels' prefilter bounds and the descent's stopping rule read them — and
// the kept pairs must be the same multiset, checked mid-stream too (items
// trims the bucket queue in place).
func TestSegHeapMatchesBinaryHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	h := newSegHeap(1, 800)
	for stream := 0; stream < 400; stream++ {
		k := []int{1, 2, 7, 200}[stream%4]
		maxHam := []int{0, 3, 40, 800}[rng.Intn(4)]
		entries := 1 + rng.Intn(3*k+20)
		width := max(maxHam, []int{96, 800}[rng.Intn(2)])
		h.reset(k, width)
		ref := &refSegHeap{k: k}
		var last []int // recently pushed pairs, replayed as repeats
		for i, pushes := 0, rng.Intn(12*k+50); i < pushes; i++ {
			e, ham := rng.Intn(entries), rng.Intn(maxHam+1)
			if len(last) > 0 && rng.Intn(5) == 0 {
				j := rng.Intn(len(last) / 2)
				e, ham = last[2*j], last[2*j+1]
			}
			last = append(last, e, ham)
			if rng.Intn(300) == 0 {
				h.reset(k, width)
				ref = &refSegHeap{k: k}
			}
			// Callers push only what the bound lets through; half the
			// stream here ignores it.
			if rng.Intn(2) == 0 && ham > ref.worst() {
				continue
			}
			h.push(e, ham)
			ref.push(e, ham)
			if h.worst() != ref.worst() || h.full() != ref.full() {
				t.Fatalf("stream %d k=%d push %d (%d,%d): worst %d full %v, want %d %v",
					stream, k, i, e, ham, h.worst(), h.full(), ref.worst(), ref.full())
			}
			if rng.Intn(50) == 0 {
				checkSegHeapItems(t, fmt.Sprintf("stream %d k=%d push %d", stream, k, i), h, ref)
			}
		}
		checkSegHeapItems(t, fmt.Sprintf("stream %d k=%d end", stream, k), h, ref)
	}
}

func checkSegHeapItems(t *testing.T, where string, h *segHeap, ref *refSegHeap) {
	t.Helper()
	got, want := slices.Clone(h.items()), []uint64(nil)
	for i := range ref.ham {
		want = append(want, pairKey(ref.ham[i], ref.entry[i]))
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: kept %v, want %v", where, got, want)
	}
}

// TestSegHeapItemsSelectsTies: items keeps the pairs at the cut-off by
// selection, not by sorting them all. On tie-heavy streams — a handful of
// distances, entries pushed again and again — its kept multiset must be the
// k smallest of everything pushed, as sorting the whole stream and cutting
// it at k gives, after every trim; and selectLeast must move exactly the n
// smallest values to the front for every n.
func TestSegHeapItemsSelectsTies(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for stream := 0; stream < 300; stream++ {
		k := 1 + rng.Intn(60)
		h := newSegHeap(k, 800)
		var pushed []uint64
		for i, n := 0, rng.Intn(20*k); i < n; i++ {
			e, ham := rng.Intn(2*k+3), 100+rng.Intn(1+rng.Intn(4))
			h.push(e, ham)
			pushed = append(pushed, pairKey(ham, e))
			if rng.Intn(k+5) == 0 || i == n-1 {
				got := slices.Clone(h.items())
				want := slices.Clone(pushed)
				slices.Sort(got)
				slices.Sort(want)
				if want = want[:min(k, len(want))]; !slices.Equal(got, want) {
					t.Fatalf("stream %d k=%d after %d pushes: kept %v, the sorted stream's first k %v", stream, k, i+1, got, want)
				}
			}
		}
	}
	for trial := 0; trial < 500; trial++ {
		s := make([]uint64, rng.Intn(40))
		for i := range s {
			s[i] = uint64(rng.Intn(1 + rng.Intn(6)))
		}
		sorted := slices.Clone(s)
		slices.Sort(sorted)
		for n := 0; n <= len(s); n++ {
			got := slices.Clone(s)
			selectLeast(got, n)
			head := slices.Clone(got[:n])
			slices.Sort(head)
			slices.Sort(got)
			if !slices.Equal(head, sorted[:n]) || !slices.Equal(got, sorted) {
				t.Fatalf("selectLeast(%v, %d) left %v", s, n, got)
			}
		}
	}
}
