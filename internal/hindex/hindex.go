// Package hindex implements a build-once multi-table Hamming index over
// packed sketch rows: sub-linear filter cost in corpus size.
//
// The scheme is generalized pigeonhole partitioning, in the lineage of
// Greene/Parnas/Yao multi-index hashing and the threshold search of Kanda &
// Tabei's sketch tries: an N-bit sketch is split into m contiguous substrings
// of near-equal width, one hash table per substring. The index is probed in
// steps: step t = s·m + j visits, in table j, the buckets whose key differs
// from the query's substring in exactly s bits. A row no step up to t has
// reached differs from the query by more than s bits in substrings 0…j and
// by at least s bits in the others — more than t in all — so after steps
// 0…t every row within Hamming distance t has been visited, and one more
// step widens the radius by one. The caller verifies the rows with the same
// Hamming kernels the arena scan uses and takes steps until its answer is
// provably complete, keeping index and scan bit-identical.
//
// Each table is a compact open-addressing hash (fibonacci hashing, linear
// probing) from substring value to a bucket of arena row IDs. The buckets are
// laid out flat, once: Insert counts each row into its m buckets, and Build
// gives every bucket a contiguous run of one shared row array (a count pass,
// then a fill pass), so a probe step reads each bucket as one slice.
//
// There is no delete and no rename: the caller (internal/core) inserts a
// segment's rows once, when the segment stops changing, builds the layout and
// publishes the finished index to its readers; after that any number of
// goroutines may probe it and nobody writes it. Rows the caller has since
// tombstoned stay in their buckets and are dropped where candidates are
// verified.
package hindex

import "math/bits"

// slot is one open-addressing hash slot: a substring value and its bucket,
// rows[off : off+count] of the index's row array. A slot with no rows is free
// (the probe terminator).
type slot struct {
	key        uint64
	off, count int32
}

// table is one substring's hash table plus the precomputed extraction plan
// for its bit range [off, off+bits) of the sketch.
type table struct {
	word0  int    // word index of the substring's first bit
	shift  uint   // bit offset of the substring within word0
	spans  bool   // substring continues into word0+1
	lo     uint   // left shift for the high word (64−shift), valid when spans
	mask   uint64 // (1<<width)−1
	hshift uint   // 64 − log2(len(slots)), for fibonacci hashing
	slots  []slot
	used   int // slots holding a bucket
}

// Index is a multi-table Hamming index over packed sketch rows.
type Index struct {
	wps    int // words per sketch row in the backing arena
	tables []table
	rows   []int32  // every bucket's rows, one contiguous run each (Build)
	n      int      // sketch rows indexed
	built  int      // rows laid out in rows: n once Build has run
	words  []uint64 // the inserted rows' packed sketches, until Build
}

// fib is 2^64/φ, the fibonacci hashing multiplier: it spreads consecutive
// and low-entropy substring values across the table before the power-of-two
// truncation.
const fib = 0x9E3779B97F4A7C15

const minSlots = 16

// New builds an empty index over nbits-bit sketches stored wps words per
// row. tables ≤ 0 derives the table count from the sketch width: substrings
// of about nbits/16 bits, but no narrower than 32 — a narrower key is shared
// by too many rows of a large segment, and its one-bit neighbourhood widens
// the covered radius by too little per look-up — and no wider than the 64 a
// key holds (96 bits → 3 tables of 32, 800 bits → 16 of 50). An explicit
// count is bounded to the same representable range.
func New(nbits, wps, tables int) *Index {
	m := tables
	if m <= 0 {
		m = nbits / min(max(nbits/16, 32), 64)
	}
	m = max(min(m, nbits), (nbits+63)/64, 1)
	ix := &Index{wps: wps, tables: make([]table, m)}
	// Contiguous substrings of width ⌊nbits/m⌋, the first nbits mod m of
	// them one bit wider, partition [0, nbits) exactly.
	off := 0
	for j := range ix.tables {
		width := nbits / m
		if j < nbits%m {
			width++
		}
		t := &ix.tables[j]
		t.word0 = off / 64
		t.shift = uint(off % 64)
		t.spans = t.shift+uint(width) > 64
		t.lo = 64 - t.shift
		t.mask = ^uint64(0) >> uint(64-width)
		t.slots = make([]slot, minSlots)
		t.hshift = 64 - 4
		off += width
	}
	return ix
}

// key extracts the table's substring from a packed sketch whose first word
// sits at words[base].
func (t *table) key(words []uint64, base int) uint64 {
	w := words[base+t.word0] >> t.shift
	if t.spans {
		w |= words[base+t.word0+1] << t.lo
	}
	return w & t.mask
}

// find returns the slot index holding key, or −1. Linear probing stops at
// the first never-used slot.
func (t *table) find(key uint64) int {
	mask := uint64(len(t.slots) - 1)
	i := (key * fib) >> t.hshift
	for {
		s := &t.slots[i]
		if s.count == 0 {
			return -1
		}
		if s.key == key {
			return int(i)
		}
		i = (i + 1) & mask
	}
}

// findOrAdd returns the slot for key, claiming a fresh one (and growing the
// table first when it is ¾ full) if the key is new; the caller counts its row
// in at once.
func (t *table) findOrAdd(key uint64) *slot {
	if 4*(t.used+1) >= 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := (key * fib) >> t.hshift
	for {
		s := &t.slots[i]
		if s.count == 0 {
			s.key = key
			t.used++
			return s
		}
		if s.key == key {
			return s
		}
		i = (i + 1) & mask
	}
}

// grow rehashes into a table of twice the capacity.
func (t *table) grow() {
	cap := 2 * len(t.slots)
	old := t.slots
	t.slots = make([]slot, cap)
	t.hshift = 64 - uint(log2(cap))
	t.used = 0
	mask := uint64(cap - 1)
	for si := range old {
		s := &old[si]
		if s.count == 0 {
			continue
		}
		i := (s.key * fib) >> t.hshift
		for t.slots[i].count != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = *s
		t.used++
	}
}

func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// Insert counts arena row (whose packed words start at row*wps in words) into
// its bucket in each of the m substring tables. Rows are inserted in order 0,
// 1, 2, …, and words must hold every row inserted so far. The rows reach
// their buckets at Build, or at the first probe after an Insert. Neither may
// run once the index is shared with probing goroutines.
func (ix *Index) Insert(row int32, words []uint64) {
	if int(row) != ix.n {
		panic("hindex: rows must be inserted in order 0, 1, 2, …")
	}
	base := int(row) * ix.wps
	for j := range ix.tables {
		t := &ix.tables[j]
		t.findOrAdd(t.key(words, base)).count++
	}
	ix.n++
	ix.words = words
}

// Build lays the buckets out: table by table, slot by slot, each bucket takes
// the next count entries of one row array, and a fill pass over the inserted
// rows writes every row into its m buckets, ascending within each.
func (ix *Index) Build() {
	if ix.built == ix.n {
		return
	}
	ix.rows = make([]int32, len(ix.tables)*ix.n)
	end := int32(0)
	for j := range ix.tables {
		for si := range ix.tables[j].slots {
			s := &ix.tables[j].slots[si]
			end += s.count
			s.off = end // filled downward to its start
		}
	}
	for row := ix.n - 1; row >= 0; row-- {
		for j := range ix.tables {
			t := &ix.tables[j]
			s := &t.slots[t.find(t.key(ix.words, row*ix.wps))]
			s.off--
			ix.rows[s.off] = int32(row)
		}
	}
	ix.built, ix.words = ix.n, nil
}

// AppendStep appends to dst the rows step t of a descent selects. Step
// t = s·m + j visits, in table j, the buckets whose key differs from the
// query's substring in exactly s bits (enumerated in place, C(width, s)
// look-ups, no bucket visited twice by a descent): m steps make one round of
// substring distance s. After steps 0…t the stream holds every row within
// Hamming distance t of q, whose packed words start at q[0] (see the package
// comment).
//
// seen is the caller's dedup scratch: one bit per row, at least
// (maxRowID+1+63)/64 words, all-zero before step 0. A row is appended once
// however many steps reach it; its bit stays set, and the caller clears the
// scratch before the next descent — the near-duplicate-heavy streams the
// index serves make a bitmap dedup during the descent far cheaper than
// sorting the cross-table duplicates away afterwards.
//
//ferret:noalloc
func (ix *Index) AppendStep(dst []int32, q []uint64, t int, seen []uint64) []int32 {
	if ix.built != ix.n {
		ix.Build() //lint:ignore noalloc only a probe right after Insert builds; an index is built before it is shared
	}
	tb := &ix.tables[t%len(ix.tables)]
	key := tb.key(q, 0)
	x := uint64(1)<<uint(t/len(ix.tables)) - 1
	for ok := x <= tb.mask; ok; x, ok = nextMask(x, tb.mask) {
		if si := tb.find(key ^ x); si >= 0 {
			s := &tb.slots[si]
			dst = appendBucket(dst, ix.rows[s.off:s.off+s.count], seen)
		}
	}
	return dst
}

// nextMask returns the next larger value with as many bits set as x (Gosper's
// hack) and whether it still lies within mask, a run of low ones: walking
// from the s low bits visits every s-bit mask of the substring once.
func nextMask(x, mask uint64) (uint64, bool) {
	r := x + x&-x // 0 when the walk leaves the word, or had no bit to move
	return r | (r^x)>>2>>uint(bits.TrailingZeros64(x)), r != 0 && r <= mask
}

// appendBucket appends the bucket's rows not yet marked in seen, marking them.
//
//ferret:noalloc
func appendBucket(dst, bucket []int32, seen []uint64) []int32 {
	for _, row := range bucket {
		if seen[row>>6]&(1<<(uint(row)&63)) == 0 {
			seen[row>>6] |= 1 << (uint(row) & 63)
			dst = append(dst, row)
		}
	}
	return dst
}

// AppendCandidates is round 0, steps 0…m−1: the rows sharing a whole
// substring with q, a superset of those within Hamming distance m−1.
//
//ferret:noalloc
func (ix *Index) AppendCandidates(dst []int32, q []uint64, seen []uint64) []int32 {
	for t := range ix.tables {
		dst = ix.AppendStep(dst, q, t, seen)
	}
	return dst
}

// StepKeys returns the number of bucket look-ups step t makes: C(width, s)
// for its table and substring distance (beyond 2⁴⁰ only "too many").
func (ix *Index) StepKeys(t int) int {
	m := len(ix.tables)
	width, c := bits.OnesCount64(ix.tables[t%m].mask), 1
	for i := 0; i < t/m && c < 1<<40; i++ {
		c = c * (width - i) / (i + 1)
	}
	return c
}

// Rows returns the number of sketch rows indexed.
func (ix *Index) Rows() int { return ix.n }

// Tables returns the substring table count m.
func (ix *Index) Tables() int { return len(ix.tables) }

// LoadFactor returns the mean slot occupancy across tables — the health
// number surfaced by STATS (tables double near 0.75, so values above that
// indicate a bug).
func (ix *Index) LoadFactor() float64 {
	if len(ix.tables) == 0 {
		return 0
	}
	sum := 0.0
	for j := range ix.tables {
		t := &ix.tables[j]
		sum += float64(t.used) / float64(len(t.slots))
	}
	return sum / float64(len(ix.tables))
}

// MemoryBytes returns the index's heap footprint once built: the slot arrays
// (16 bytes a slot) plus the row array (4 bytes for each row in each table).
func (ix *Index) MemoryBytes() int {
	slots := 0
	for j := range ix.tables {
		slots += len(ix.tables[j].slots)
	}
	return slots*16 + len(ix.tables)*ix.n*4
}
