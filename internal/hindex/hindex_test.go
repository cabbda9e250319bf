package hindex

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
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

func (o *oracle) candidates(q []uint64) []int32 {
	var out []int32
	for j := range o.ix.tables {
		out = append(out, o.tables[j][o.ix.tables[j].key(q, 0)]...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

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

func TestClampTables(t *testing.T) {
	if got := ClampTables(0, 800); got != DefaultTables {
		t.Fatalf("default = %d", got)
	}
	if got := ClampTables(4, 800); got != 13 { // 800 bits need ≥13 tables for ≤64-bit keys
		t.Fatalf("low clamp = %d", got)
	}
	if got := ClampTables(1000, 64); got != 32 { // ≥2 bits per substring
		t.Fatalf("high clamp = %d", got)
	}
}

// TestPigeonholeRecall verifies the index contract directly: every row
// within Hamming distance Radius() of the query is a candidate.
func TestPigeonholeRecall(t *testing.T) {
	const nbits, wps = 256, 4
	ix := New(nbits, wps, 8) // radius 7
	rng := rand.New(rand.NewSource(7))
	base := randRow(rng, wps)
	arena := make([]uint64, 0, 64*wps)
	var within []int32
	for row := int32(0); row < 64; row++ {
		w := slices.Clone(base)
		flips := int(row) % (2 * ix.Tables()) // 0..15 bit flips; ≤7 must be found
		for f := 0; f < flips; f++ {
			b := rng.Intn(nbits)
			w[b/64] ^= uint64(1) << uint(b%64)
		}
		if flips <= ix.Radius() {
			within = append(within, row)
		}
		arena = append(arena, w...)
		ix.Insert(row, arena)
	}
	got := sortedCandidates(ix, base)
	for _, row := range within {
		if !slices.Contains(got, row) {
			t.Fatalf("row %d within radius %d missing from candidates %v", row, ix.Radius(), got)
		}
	}
}

// TestInsertFuzz builds indexes from random low-entropy rows — few distinct
// substring values, so buckets overflow blocks (>15 rows per bucket) and
// tables rehash — probing against the map oracle as the build proceeds.
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
		}
		if ix.LoadFactor() > 0.80 {
			t.Fatalf("seed %d: load factor %.2f exceeds rehash ceiling", seed, ix.LoadFactor())
		}
	}
}

// TestEstimateMatchesAppend checks the cost model's estimate equals the
// actual candidate stream length (duplicates included).
func TestEstimateMatchesAppend(t *testing.T) {
	const nbits, wps = 192, 3
	rng := rand.New(rand.NewSource(5))
	ix := New(nbits, wps, 6)
	arena := make([]uint64, 0, 200*wps)
	for row := int32(0); row < 200; row++ {
		for w := 0; w < wps; w++ {
			arena = append(arena, uint64(rng.Intn(16)))
		}
		ix.Insert(row, arena)
	}
	for trial := 0; trial < 50; trial++ {
		q := make([]uint64, wps)
		for w := range q {
			q[w] = uint64(rng.Intn(16))
		}
		got := ix.AppendCandidates(nil, q, nil)
		if est := ix.EstimateCandidates(q); est != len(got) {
			t.Fatalf("estimate %d != stream %d", est, len(got))
		}
		deduped := sortedCandidates(ix, q)
		raw := append([]int32(nil), got...)
		slices.Sort(raw)
		if !slices.Equal(slices.Compact(raw), deduped) {
			t.Fatalf("bitmap dedup diverged from sort+compact")
		}
	}
}
