package hindex

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// oracle is the reference implementation: per-table map from substring key
// to row set.
type oracle struct {
	ix     *Index
	tables []map[uint64][]int32
}

func newOracle(ix *Index) *oracle {
	o := &oracle{ix: ix, tables: make([]map[uint64][]int32, ix.Tables())}
	for j := range o.tables {
		o.tables[j] = make(map[uint64][]int32)
	}
	return o
}

func (o *oracle) insert(row int32, words []uint64) {
	base := int(row) * o.ix.wps
	for j := range o.ix.tables {
		k := o.ix.tables[j].key(words, base)
		o.tables[j][k] = append(o.tables[j][k], row)
	}
}

// reached returns, ascending, the rows steps 0…t reach: a substring at most
// t/m bits from q's in tables 0…t%m, one bit fewer in the rest. candidates is
// round 0.
func (o *oracle) reached(q []uint64, t int) []int32 {
	var out []int32
	m := len(o.tables)
	for j := range o.ix.tables {
		qk := o.ix.tables[j].key(q, 0)
		s := t / m
		if j > t%m {
			s--
		}
		for k, rows := range o.tables[j] {
			if bits.OnesCount64(k^qk) <= s {
				out = append(out, rows...)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func (o *oracle) candidates(q []uint64) []int32 { return o.reached(q, len(o.tables)-1) }

func sortedCandidates(ix *Index, q []uint64) []int32 {
	seen := make([]uint64, 1<<16/64)
	got := ix.AppendCandidates(nil, q, seen)
	for _, row := range got {
		seen[row>>6] &^= 1 << (uint(row) & 63)
	}
	for i, w := range seen {
		if w != 0 {
			panic(fmt.Sprintf("seen word %d not cleared: %x", i, w))
		}
	}
	slices.Sort(got)
	return got
}

func randRow(rng *rand.Rand, wps int) []uint64 {
	w := make([]uint64, wps)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}

// TestKeyPartition checks the substring extraction plan: the concatenated
// per-table keys must reproduce the sketch's nbits bits exactly.
func TestKeyPartition(t *testing.T) {
	for _, tc := range []struct{ nbits, wps, tables int }{
		{128, 2, 4}, {800, 13, 16}, {256, 4, 7}, {64, 1, 3}, {192, 3, 192 / 2},
	} {
		ix := New(tc.nbits, tc.wps, tc.tables)
		rng := rand.New(rand.NewSource(42))
		words := randRow(rng, tc.wps)
		// Clear bits at and above nbits in the last word so the bit-by-bit
		// reference below sees exactly what extraction sees.
		if r := uint(tc.nbits % 64); r != 0 {
			words[tc.wps-1] &= (uint64(1) << r) - 1
		}
		bit := 0
		for j := range ix.tables {
			tbl := &ix.tables[j]
			key := tbl.key(words, 0)
			width := 0
			for m := tbl.mask; m != 0; m >>= 1 {
				width++
			}
			for b := 0; b < width; b++ {
				want := (words[bit/64] >> uint(bit%64)) & 1
				if got := (key >> uint(b)) & 1; got != want {
					t.Fatalf("nbits=%d m=%d table %d bit %d: got %d want %d",
						tc.nbits, ix.Tables(), j, b, got, want)
				}
				bit++
			}
		}
		if bit != tc.nbits {
			t.Fatalf("nbits=%d m=%d: partition covers %d bits", tc.nbits, ix.Tables(), bit)
		}
	}
}

// TestDerivedGeometry pins the table counts New derives from the sketch
// width and the bounds it puts on an explicit count.
func TestDerivedGeometry(t *testing.T) {
	for _, tc := range []struct{ nbits, tables, want int }{
		{96, 0, 3}, {800, 0, 16}, {64, 0, 2}, {256, 0, 8}, {128, 0, 4}, {1024, 0, 16}, {2048, 0, 32}, {20, 0, 1},
		{800, 4, 13}, // 800 bits need ≥13 tables for ≤64-bit keys
		{64, 1000, 64},
	} {
		if got := New(tc.nbits, (tc.nbits+63)/64, tc.tables).Tables(); got != tc.want {
			t.Errorf("New(%d bits, tables %d) has %d tables, want %d", tc.nbits, tc.tables, got, tc.want)
		}
	}
}

// TestNextMaskEnumeratesOnce: the walk AppendStep makes over a substring's
// s-bit masks visits each of the C(width, s) masks exactly once, so a step
// looks every bucket of its neighbourhood up once and steps never overlap.
func TestNextMaskEnumeratesOnce(t *testing.T) {
	for _, width := range []int{1, 5, 24, 32, 50, 64} {
		mask := ^uint64(0) >> uint(64-width)
		ix := &Index{tables: []table{{mask: mask}}}
		for s := 0; s <= min(width, 3); s++ {
			n, prev := 0, uint64(0)
			for x, ok := uint64(1)<<uint(s)-1, true; ok; x, ok = nextMask(x, mask) {
				if bits.OnesCount64(x) != s || x&^mask != 0 || (n > 0 && x <= prev) {
					t.Fatalf("width %d s %d: mask %d is %#x after %#x", width, s, n, x, prev)
				}
				n, prev = n+1, x
			}
			if n != ix.StepKeys(s) {
				t.Fatalf("width %d s %d: %d masks, StepKeys says %d", width, s, n, ix.StepKeys(s))
			}
		}
		if got, want := ix.StepKeys(2), width*(width-1)/2; got != want {
			t.Fatalf("width %d: StepKeys(2) = %d, want %d", width, got, want)
		}
	}
}

// TestStepsCoverRadius is the index contract, over sketch widths and seeded
// clustered corpora: after steps 0…t the candidate stream is exactly the rows
// some table reaches — a substring within t/m bits of the query's, one bit
// fewer in the tables the round has yet to visit (map oracle) — each once,
// which includes every row within Hamming distance t (brute force), so
// m·(s+1)−1 after round s; and a descent allocates nothing.
func TestStepsCoverRadius(t *testing.T) {
	const rows = 600
	for _, nbits := range []int{64, 96, 256, 800} {
		for seed := int64(1); seed <= 3; seed++ {
			wps := (nbits + 63) / 64
			rng := rand.New(rand.NewSource(seed*1000 + int64(nbits)))
			ix := New(nbits, wps, 0)
			m := ix.Tables()
			o := newOracle(ix)
			centers := make([][]uint64, 6)
			for c := range centers {
				centers[c] = randRow(rng, wps)
				centers[c][wps-1] &= ^uint64(0) >> uint(wps*64-nbits)
			}
			near := func(maxFlips int) []uint64 {
				w := slices.Clone(centers[rng.Intn(len(centers))])
				for f := rng.Intn(maxFlips + 1); f > 0; f-- {
					b := rng.Intn(nbits)
					w[b/64] ^= 1 << uint(b%64)
				}
				return w
			}
			var arena []uint64
			for row := int32(0); row < rows; row++ {
				arena = append(arena, near(3*m)...)
				ix.Insert(row, arena)
				o.insert(row, arena)
			}
			ix.Build()
			checkLayout(t, ix, arena)

			seen := make([]uint64, (rows+63)/64)
			var stream []int32
			descend := func(q []uint64, steps int, check func(t int)) {
				clear(seen)
				stream = stream[:0]
				for t := 0; t < steps; t++ {
					stream = ix.AppendStep(stream, q, t, seen)
					check(t)
				}
			}
			for trial := 0; trial < 8; trial++ {
				q := near(2 * m)
				descend(q, 2*m+m/2+1, func(step int) {
					got := slices.Clone(stream)
					slices.Sort(got)
					if want := o.reached(q, step); !slices.Equal(got, want) {
						t.Fatalf("%d bits seed %d: after step %d the stream is %v, oracle %v", nbits, seed, step, got, want)
					}
					for row := 0; row < rows; row++ {
						h := 0
						for w, qw := range q {
							h += bits.OnesCount64(qw ^ arena[row*wps+w])
						}
						if _, ok := slices.BinarySearch(got, int32(row)); !ok && h <= step {
							t.Fatalf("%d bits seed %d: row %d at distance %d missing after step %d", nbits, seed, row, h, step)
						}
					}
				})
			}
			q := near(m)
			if allocs := testing.AllocsPerRun(20, func() { descend(q, 2*m, func(int) {}) }); allocs != 0 {
				t.Fatalf("%d bits: a descent allocates %.0f times", nbits, allocs)
			}
		}
	}
}

// TestInsertFuzz builds indexes from random low-entropy rows — few distinct
// substring values, so buckets hold many rows and tables rehash — probing
// against the map oracle as the build proceeds: each probe after an Insert
// lays the rows inserted so far out again, and every few rows the layout is
// checked against the rows.
func TestInsertFuzz(t *testing.T) {
	const nbits, wps, maxRows = 128, 2, 400
	for _, seed := range []int64{1, 2, 3, 99} {
		rng := rand.New(rand.NewSource(seed))
		ix := New(nbits, wps, 4)
		o := newOracle(ix)
		arena := make([]uint64, 0, maxRows*wps)
		for row := int32(0); row < maxRows; row++ {
			for w := 0; w < wps; w++ {
				arena = append(arena, uint64(rng.Intn(4))<<uint(rng.Intn(60)))
			}
			ix.Insert(row, arena)
			o.insert(row, arena)
			probe := int(rng.Int31n(row + 1))
			q := arena[probe*wps : (probe+1)*wps]
			if got, want := sortedCandidates(ix, q), o.candidates(q); !slices.Equal(got, want) {
				t.Fatalf("seed %d after row %d: candidates(%d) = %v, oracle %v", seed, row, probe, got, want)
			}
			if ix.Rows() != int(row)+1 {
				t.Fatalf("seed %d: Rows()=%d after %d inserts", seed, ix.Rows(), row+1)
			}
			if row%37 == 0 {
				checkLayout(t, ix, arena)
			}
		}
		if ix.LoadFactor() > 0.80 {
			t.Fatalf("seed %d: load factor %.2f exceeds rehash ceiling", seed, ix.LoadFactor())
		}
	}
}

// checkLayout checks a built index's flat layout against the rows it holds:
// table j's buckets tile rows[j·n, (j+1)·n) in slot order, each holds the
// rows whose substring is its key, once each and ascending, and MemoryBytes
// counts exactly the slot arrays and the row array.
func checkLayout(t *testing.T, ix *Index, words []uint64) {
	t.Helper()
	if ix.built != ix.n || len(ix.rows) != len(ix.tables)*ix.n {
		t.Fatalf("%d of %d rows built, row array of %d", ix.built, ix.n, len(ix.rows))
	}
	bytes := len(ix.rows) * int(unsafe.Sizeof(int32(0)))
	for j := range ix.tables {
		tb := &ix.tables[j]
		next := int32(j * ix.n)
		for _, s := range tb.slots {
			if s.count == 0 {
				continue
			}
			if s.off != next {
				t.Fatalf("table %d: bucket %#x starts at %d, want %d", j, s.key, s.off, next)
			}
			next += s.count
			for i, row := range ix.rows[s.off : s.off+s.count] {
				if k := tb.key(words, int(row)*ix.wps); k != s.key || (i > 0 && row <= ix.rows[s.off+int32(i)-1]) {
					t.Fatalf("table %d: bucket %#x holds row %d (key %#x) at %d", j, s.key, row, k, i)
				}
			}
		}
		if next != int32((j+1)*ix.n) {
			t.Fatalf("table %d: buckets end at %d, want %d", j, next, (j+1)*ix.n)
		}
		bytes += len(tb.slots) * int(unsafe.Sizeof(slot{}))
	}
	if ix.MemoryBytes() != bytes {
		t.Fatalf("MemoryBytes() = %d, slots and rows take %d", ix.MemoryBytes(), bytes)
	}
}

// TestBuildEdges: an empty index builds, probes to nothing and counts only
// its slot arrays; an index whose rows are all equal puts every row in one
// bucket per table, which a probe returns whole, in row order, and a query
// differing in every substring misses at round 0.
func TestBuildEdges(t *testing.T) {
	const nbits, wps, rows = 128, 2, 300
	empty := New(nbits, wps, 0)
	empty.Build()
	checkLayout(t, empty, nil)
	seen := make([]uint64, 1)
	if got := empty.AppendCandidates(nil, []uint64{0, 0}, seen); len(got) != 0 || empty.Rows() != 0 {
		t.Fatalf("empty index: %d rows, candidates %v", empty.Rows(), got)
	}

	same := New(nbits, wps, 0)
	arena := make([]uint64, 0, rows*wps)
	for row := int32(0); row < rows; row++ {
		arena = append(arena, 0x5555, 0xAAAA)
		same.Insert(row, arena)
	}
	same.Build()
	checkLayout(t, same, arena)
	for j := range same.tables {
		if same.tables[j].used != 1 {
			t.Fatalf("table %d holds %d buckets, want 1", j, same.tables[j].used)
		}
	}
	seen = make([]uint64, (rows+63)/64)
	got := same.AppendCandidates(nil, arena[:wps], seen)
	if len(got) != rows || !slices.IsSorted(got) {
		t.Fatalf("probe of the shared value returned %d rows (sorted %t), want all %d", len(got), slices.IsSorted(got), rows)
	}
	clear(seen)
	if got := same.AppendCandidates(nil, []uint64{^uint64(0x5555), ^uint64(0xAAAA)}, seen); len(got) != 0 {
		t.Fatalf("a query differing in every bit reached %d rows at round 0", len(got))
	}
}
