// Package hindex implements a build-once multi-table Hamming index over
// packed sketch rows: sub-linear filter cost in corpus size.
//
// The scheme is generalized pigeonhole partitioning, in the lineage of
// Greene/Parnas/Yao multi-index hashing and the static sketch indexes of
// Kanda & Tabei: an N-bit sketch is split into m contiguous
// substrings of near-equal width. If two sketches differ in at most r = m−1
// bit positions, those differences cannot touch all m substrings, so the
// sketches collide exactly in at least one substring table. Probing the m
// tables with the query's substrings therefore yields a candidate superset
// of every row within Hamming radius m−1; candidates are verified by the
// caller with the same Hamming kernels the arena scan uses, keeping index
// and scan bit-identical.
//
// Each table is a compact open-addressing hash (fibonacci hashing, linear
// probing) from substring value to a bucket of arena row IDs. Buckets are
// singly linked chains of fixed 64-byte blocks carved from one shared slab,
// so Insert is O(m) amortized.
//
// There is no delete and no rename: the caller (internal/core) inserts a
// segment's rows once, when the segment stops changing, and publishes the
// finished index to its readers; after that any number of goroutines may
// probe it and nobody writes it. Rows the caller has since tombstoned stay
// in their buckets and are dropped where candidates are verified.
package hindex

// DefaultTables is the substring table count used when the caller does not
// choose one: m=16 answers Hamming radius 15 exactly, which covers the
// within-cluster sketch distances of the stock data types (≈50-bit
// substrings keep every table selective even at millions of rows).
const DefaultTables = 16

// blockRows rows plus the chain link make a block exactly 64 bytes — one
// cache line per probe step.
const blockRows = 15

// block is one cache-line-sized bucket segment. The head block of a chain
// holds ((count−1) mod blockRows)+1 rows; every later block is full.
type block struct {
	rows [blockRows]int32
	next int32 // next block in chain, noBlock at the tail
}

const (
	noBlock  = -1 // chain terminator
	slotFree = -2 // slot.head value for a never-used slot (probe terminator)
)

// slot is one open-addressing hash slot; a slot with a key holds at least
// one row.
type slot struct {
	key   uint64
	head  int32 // first block of the bucket chain, or slotFree
	count int32 // rows in this bucket
}

// table is one substring's hash table plus the precomputed extraction plan
// for its bit range [off, off+bits) of the sketch.
type table struct {
	word0  int    // word index of the substring's first bit
	shift  uint   // bit offset of the substring within word0
	spans  bool   // substring continues into word0+1
	lo     uint   // left shift for the high word (64−shift), valid when spans
	mask   uint64 // (1<<bits)−1
	hshift uint   // 64 − log2(len(slots)), for fibonacci hashing
	slots  []slot
	used   int // slots holding a bucket
}

// Index is a multi-table Hamming index over packed sketch rows.
type Index struct {
	nbits  int
	wps    int // words per sketch row in the backing arena
	tables []table
	blocks []block
	rows   int // sketch rows indexed
}

// fib is 2^64/φ, the fibonacci hashing multiplier: it spreads consecutive
// and low-entropy substring values across the table before the power-of-two
// truncation.
const fib = 0x9E3779B97F4A7C15

const minSlots = 16

// ClampTables bounds a requested table count m to the representable range
// for an nbits sketch: every substring must fit a uint64 key (m ≥
// ⌈nbits/64⌉) and carry at least two bits of selectivity (m ≤ nbits/2).
// m ≤ 0 selects DefaultTables.
func ClampTables(tables, nbits int) int {
	m := tables
	if m <= 0 {
		m = DefaultTables
	}
	if min := (nbits + 63) / 64; m < min {
		m = min
	}
	if max := nbits / 2; m > max {
		m = max
	}
	if m < 1 {
		m = 1
	}
	return m
}

// New builds an empty index over nbits-bit sketches stored wps words per
// row. tables ≤ 0 selects DefaultTables; out-of-range counts are clamped
// (see ClampTables).
func New(nbits, wps, tables int) *Index {
	m := ClampTables(tables, nbits)
	ix := &Index{nbits: nbits, wps: wps, tables: make([]table, m)}
	// Contiguous substrings of width ⌊nbits/m⌋, the first nbits mod m of
	// them one bit wider, partition [0, nbits) exactly.
	off := 0
	for j := range ix.tables {
		bits := nbits / m
		if j < nbits%m {
			bits++
		}
		t := &ix.tables[j]
		t.word0 = off / 64
		t.shift = uint(off % 64)
		t.spans = t.shift+uint(bits) > 64
		t.lo = 64 - t.shift
		if bits == 64 {
			t.mask = ^uint64(0)
		} else {
			t.mask = (uint64(1) << uint(bits)) - 1
		}
		t.slots = newSlots(minSlots)
		t.hshift = 64 - 4
		off += bits
	}
	return ix
}

func newSlots(n int) []slot {
	s := make([]slot, n)
	for i := range s {
		s[i].head = slotFree
	}
	return s
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
		if s.head == slotFree {
			return -1
		}
		if s.key == key {
			return int(i)
		}
		i = (i + 1) & mask
	}
}

// findOrAdd returns the slot index for key, claiming a fresh slot (and
// growing the table first when it is ¾ full) if the key is new.
func (t *table) findOrAdd(key uint64) int {
	if 4*(t.used+1) >= 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := (key * fib) >> t.hshift
	for {
		s := &t.slots[i]
		if s.head == slotFree {
			s.key = key
			s.head = noBlock
			t.used++
			return int(i)
		}
		if s.key == key {
			return int(i)
		}
		i = (i + 1) & mask
	}
}

// grow rehashes into a table of twice the capacity.
func (t *table) grow() {
	cap := 2 * len(t.slots)
	old := t.slots
	t.slots = newSlots(cap)
	t.hshift = 64 - uint(log2(cap))
	t.used = 0
	mask := uint64(cap - 1)
	for si := range old {
		s := &old[si]
		if s.head == slotFree {
			continue
		}
		i := (s.key * fib) >> t.hshift
		for t.slots[i].head != slotFree {
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

// add appends row to the bucket for key in table t, extending the slab by a
// block linked in front of the chain when the head block is full.
func (ix *Index) add(t *table, key uint64, row int32) {
	si := t.findOrAdd(key)
	s := &t.slots[si]
	pos := s.count % blockRows
	if pos == 0 {
		ix.blocks = append(ix.blocks, block{next: s.head})
		s.head = int32(len(ix.blocks) - 1)
	}
	ix.blocks[s.head].rows[pos] = row
	s.count++
}

// Insert indexes arena row (whose packed words start at row*wps in words)
// under all m substring tables. It must not run once the index is shared
// with probing goroutines.
func (ix *Index) Insert(row int32, words []uint64) {
	base := int(row) * ix.wps
	for j := range ix.tables {
		t := &ix.tables[j]
		ix.add(t, t.key(words, base), row)
	}
	ix.rows++
}

// AppendCandidates appends to dst the row IDs of every bucket the query's
// substrings select — the pigeonhole superset of all rows within Hamming
// radius Radius() of q. q holds the query sketch's packed words starting at
// q[0].
//
// seen is the caller's dedup scratch: one bit per row, at least
// (maxRowID+1+63)/64 words, all-zero on entry. Rows matching in several
// tables are appended once; their bits are left set in seen, and the
// caller must clear them (one &^= per appended row) before reusing the
// scratch — the near-duplicate-heavy streams the index serves make a
// bitmap dedup during the descent far cheaper than sorting the raw
// stream's cross-table duplicates away afterwards. A nil seen appends the
// raw stream, duplicates included (the shape EstimateCandidates prices).
//
//ferret:noalloc
func (ix *Index) AppendCandidates(dst []int32, q []uint64, seen []uint64) []int32 {
	for j := range ix.tables {
		t := &ix.tables[j]
		si := t.find(t.key(q, 0))
		if si < 0 {
			continue
		}
		s := &t.slots[si]
		if s.count == 0 {
			continue
		}
		fill := (s.count-1)%blockRows + 1
		for b := s.head; b != noBlock; b = ix.blocks[b].next {
			if seen == nil {
				dst = append(dst, ix.blocks[b].rows[:fill]...)
			} else {
				for _, row := range ix.blocks[b].rows[:fill] {
					if seen[row>>6]&(1<<(uint(row)&63)) == 0 {
						seen[row>>6] |= 1 << (uint(row) & 63)
						dst = append(dst, row)
					}
				}
			}
			fill = blockRows
		}
	}
	return dst
}

// EstimateCandidates returns the total bucket population the query's
// substrings select — the exact number of rows an AppendCandidates descent
// visits (cross-table duplicates included, an upper bound on the distinct
// candidates) in O(m) slot lookups, for the caller's cost model.
//
//ferret:noalloc
func (ix *Index) EstimateCandidates(q []uint64) int {
	est := 0
	for j := range ix.tables {
		t := &ix.tables[j]
		if si := t.find(t.key(q, 0)); si >= 0 {
			est += int(t.slots[si].count)
		}
	}
	return est
}

// Rows returns the number of sketch rows indexed.
func (ix *Index) Rows() int { return ix.rows }

// Tables returns the substring table count m.
func (ix *Index) Tables() int { return len(ix.tables) }

// Radius returns the largest Hamming radius the index answers exactly:
// m−1, by the pigeonhole argument in the package comment.
func (ix *Index) Radius() int { return len(ix.tables) - 1 }

// Bits returns the sketch width the index was built for.
func (ix *Index) Bits() int { return ix.nbits }

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

// MemoryBytes estimates the index's heap footprint: slot arrays plus the
// block slab.
func (ix *Index) MemoryBytes() int {
	slots := 0
	for j := range ix.tables {
		slots += len(ix.tables[j].slots)
	}
	return slots*16 + len(ix.blocks)*64
}
