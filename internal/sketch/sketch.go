// Package sketch implements the Ferret toolkit's sketch construction
// (paper §4.1.1, Algorithms 1 and 2).
//
// A sketch is a compact N-bit vector computed from a high-dimensional
// feature vector such that the Hamming distance between two sketches
// estimates a (thresholded) weighted ℓ₁ distance between the original
// vectors. Construction draws N×K random (i, t) pairs — a dimension i
// sampled with probability proportional to wᵢ·(maxᵢ−minᵢ) and a threshold t
// uniform in [minᵢ, maxᵢ]. Each raw bit records whether vᵢ < t; groups of K
// raw bits are XOR-folded into one output bit, which dampens the
// contribution of large distances (the thresholding effect described in the
// paper: the bigger K, the stronger the dampening).
package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
)

// Params configures sketch construction for one feature space
// (paper §4.1.1: N, min[D], max[D], w[D], K).
type Params struct {
	// N is the sketch size in bits.
	N int
	// K is the threshold control: each output bit is the XOR of K raw
	// comparison bits. K = 1 (the paper's default) estimates the plain
	// weighted ℓ₁ distance; larger K dampens large distances.
	K int
	// Min and Max bound each of the D dimensions of the feature space.
	Min, Max []float32
	// W optionally weights the dimensions; nil means uniform weights.
	W []float32
	// Seed makes the random (i, t) pairs reproducible. Builders persisted
	// by the metadata store round-trip exactly regardless of seed.
	Seed int64
}

// Sketch is an N-bit vector packed into 64-bit words, little end first.
type Sketch []uint64

// Words returns the number of 64-bit words needed for n bits.
func Words(n int) int { return (n + 63) / 64 }

// Hamming returns the number of differing bits between two equal-length
// sketches. This is the engine's fast segment distance estimate, computed
// with XOR and popcount as in the paper.
func Hamming(a, b Sketch) int {
	if len(a) != len(b) {
		panic("sketch: length mismatch")
	}
	var h int
	for i := range a {
		h += bits.OnesCount64(a[i] ^ b[i])
	}
	return h
}

// Bit reports bit n of the sketch.
func (s Sketch) Bit(n int) bool { return s[n/64]&(1<<(n%64)) != 0 }

// HammingAt returns the Hamming distance between q and the equal-length
// sketch stored at word offset off inside a flat sketch arena. The bounds
// check is hoisted to a single sub-slice operation, so the popcount loop
// runs with no per-word checks and no per-sketch slice-header loads — the
// kernel the arena-backed filter scan is built on.
//ferret:noalloc
func HammingAt(q Sketch, arena []uint64, off int) int {
	w := arena[off : off+len(q)]
	var h int
	for i, qw := range q {
		h += bits.OnesCount64(qw ^ w[i])
	}
	return h
}

// HammingSelect is the filter scan's fused kernel: it computes the Hamming
// distance between q and count consecutive sketches starting at word offset
// off, and records only the rows at or under bound — the block-relative row
// index into idx[n] and the distance into dist[n] — returning the hit count
// n. Misses (the overwhelming majority once the scan's k-nearest bound
// tightens) cost one compare and no stores, which is what lets the scan
// approach the raw XOR+popcount throughput of the arena sweep. idx and dist
// must each hold at least count values.
//ferret:noalloc
func HammingSelect(q Sketch, arena []uint64, off, count int, bound int32, idx, dist []int32) int {
	wps := len(q)
	if count == 0 {
		return 0
	}
	w := arena[off : off+count*wps]
	idx = idx[:count]
	dist = dist[:count]
	n := 0
	switch wps {
	case 1:
		q0 := q[0]
		for i := 0; i < count; i++ {
			if h := int32(bits.OnesCount64(q0 ^ w[i])); h <= bound {
				idx[n], dist[n] = int32(i), h
				n++
			}
		}
	case 2:
		q0, q1 := q[0], q[1]
		i, j := 0, 0
		// Two rows per iteration: halves the loop bookkeeping, and the two
		// row sums are independent dependency chains.
		for ; j+3 < len(w); i, j = i+2, j+4 {
			h0 := int32(bits.OnesCount64(q0^w[j]) + bits.OnesCount64(q1^w[j+1]))
			h1 := int32(bits.OnesCount64(q0^w[j+2]) + bits.OnesCount64(q1^w[j+3]))
			if h0 <= bound {
				idx[n], dist[n] = int32(i), h0
				n++
			}
			if h1 <= bound {
				idx[n], dist[n] = int32(i+1), h1
				n++
			}
		}
		for ; j+1 < len(w); i, j = i+1, j+2 {
			if h := int32(bits.OnesCount64(q0^w[j]) + bits.OnesCount64(q1^w[j+1])); h <= bound {
				idx[n], dist[n] = int32(i), h
				n++
			}
		}
	case 4:
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		for i, j := 0, 0; j+3 < len(w); i, j = i+1, j+4 {
			if h := int32(bits.OnesCount64(q0^w[j]) + bits.OnesCount64(q1^w[j+1]) +
				bits.OnesCount64(q2^w[j+2]) + bits.OnesCount64(q3^w[j+3])); h <= bound {
				idx[n], dist[n] = int32(i), h
				n++
			}
		}
	default:
		for i := 0; i < count; i++ {
			row := w[i*wps : i*wps+wps]
			var h int32
			for k, qw := range q {
				h += int32(bits.OnesCount64(qw ^ row[k]))
			}
			if h <= bound {
				idx[n], dist[n] = int32(i), h
				n++
			}
		}
	}
	return n
}

// Builder holds the N×K random (i, t) pairs generated by Algorithm 1 and
// converts feature vectors to sketches via Algorithm 2. A Builder is
// immutable after construction and safe for concurrent use.
type Builder struct {
	n, k     int
	dim      int
	min, max []float32
	pairsI   []int32   // N*K sampled dimensions
	pairsT   []float32 // N*K sampled thresholds
	z        float64   // Σᵢ wᵢ·(maxᵢ−minᵢ): scale linking bit-flip probability to weighted ℓ₁
	w        []float32 // normalized dimension weights actually used
}

// NewBuilder runs Algorithm 1: it validates the parameters and draws the
// N×K random (i, t) pairs.
func NewBuilder(p Params) (*Builder, error) {
	if p.N <= 0 {
		return nil, errors.New("sketch: N must be positive")
	}
	if p.K <= 0 {
		p.K = 1
	}
	d := len(p.Min)
	if d == 0 || len(p.Max) != d {
		return nil, fmt.Errorf("sketch: min/max dimension mismatch (%d vs %d)", len(p.Min), len(p.Max))
	}
	w := p.W
	if w == nil {
		w = make([]float32, d)
		for i := range w {
			w[i] = 1
		}
	} else if len(w) != d {
		return nil, fmt.Errorf("sketch: weight dimension %d, want %d", len(w), d)
	}

	// pᵢ ∝ wᵢ·(maxᵢ−minᵢ), normalized (Algorithm 1). Dimensions with zero
	// range or zero weight are never sampled.
	prob := make([]float64, d)
	var z float64
	for i := 0; i < d; i++ {
		if p.Max[i] < p.Min[i] {
			return nil, fmt.Errorf("sketch: max[%d] < min[%d]", i, i)
		}
		if w[i] < 0 {
			return nil, fmt.Errorf("sketch: negative weight for dimension %d", i)
		}
		prob[i] = float64(w[i]) * float64(p.Max[i]-p.Min[i])
		z += prob[i]
	}
	if z <= 0 {
		return nil, errors.New("sketch: all dimensions have zero weight×range")
	}
	cum := make([]float64, d)
	var acc float64
	for i := 0; i < d; i++ {
		acc += prob[i] / z
		cum[i] = acc
	}
	cum[d-1] = 1 // guard against rounding

	rng := rand.New(rand.NewSource(p.Seed))
	total := p.N * p.K
	b := &Builder{
		n: p.N, k: p.K, dim: d,
		min:    append([]float32(nil), p.Min...),
		max:    append([]float32(nil), p.Max...),
		pairsI: make([]int32, total),
		pairsT: make([]float32, total),
		z:      z,
		w:      append([]float32(nil), w...),
	}
	for j := 0; j < total; j++ {
		r := rng.Float64()
		i := sort.SearchFloat64s(cum, r)
		if i >= d {
			i = d - 1
		}
		// Skip zero-probability dimensions the search may land on when
		// adjacent cumulative values are equal.
		//lint:ignore floatcmp zero-weight dimensions carry an exact 0 probability by construction
		for prob[i] == 0 && i+1 < d {
			i++
		}
		b.pairsI[j] = int32(i)
		b.pairsT[j] = p.Min[i] + float32(rng.Float64())*(p.Max[i]-p.Min[i])
	}
	return b, nil
}

// N returns the sketch size in bits.
func (b *Builder) N() int { return b.n }

// K returns the XOR-fold factor.
func (b *Builder) K() int { return b.k }

// Dim returns the feature-space dimensionality the builder was built for.
func (b *Builder) Dim() int { return b.dim }

// Scale returns Σᵢ wᵢ·(maxᵢ−minᵢ), the constant that converts a raw
// bit-difference probability into a weighted ℓ₁ distance.
func (b *Builder) Scale() float64 { return b.z }

// Build runs Algorithm 2: it converts a feature vector into an N-bit
// sketch. The vector's dimensionality must match the builder's.
func (b *Builder) Build(v []float32) Sketch {
	if len(v) != b.dim {
		panic(fmt.Sprintf("sketch: vector dimension %d, want %d", len(v), b.dim))
	}
	s := make(Sketch, Words(b.n))
	idx := 0
	for n := 0; n < b.n; n++ {
		var x uint64
		for k := 0; k < b.k; k++ {
			i := b.pairsI[idx]
			t := b.pairsT[idx]
			idx++
			if v[i] >= t {
				x ^= 1
			}
		}
		s[n/64] |= x << (n % 64)
	}
	return s
}

// BuildInto is Build with a caller-provided destination (len Words(N)),
// avoiding allocation in bulk-ingest loops.
func (b *Builder) BuildInto(dst Sketch, v []float32) {
	if len(v) != b.dim {
		panic(fmt.Sprintf("sketch: vector dimension %d, want %d", len(v), b.dim))
	}
	for i := range dst {
		dst[i] = 0
	}
	idx := 0
	for n := 0; n < b.n; n++ {
		var x uint64
		for k := 0; k < b.k; k++ {
			i := b.pairsI[idx]
			t := b.pairsT[idx]
			idx++
			if v[i] >= t {
				x ^= 1
			}
		}
		dst[n/64] |= x << (n % 64)
	}
}

// FlipProbability returns the probability q that one raw comparison bit
// differs between vectors a and b: the weighted ℓ₁ distance divided by the
// scale Σ wᵢ(maxᵢ−minᵢ). Entries are clamped to the [min, max] box first.
func (b *Builder) FlipProbability(a, v []float32) float64 {
	var s float64
	for i := range a {
		x := clamp(a[i], b.min[i], b.max[i])
		y := clamp(v[i], b.min[i], b.max[i])
		d := float64(x) - float64(y)
		if d < 0 {
			d = -d
		}
		s += float64(b.w[i]) * d
	}
	return s / b.z
}

// ExpectedHammingFraction returns the expected fraction of differing output
// bits for raw flip probability q: (1 − (1−2q)^K) / 2. For K = 1 this is q
// itself; larger K dampens large q toward 1/2.
func (b *Builder) ExpectedHammingFraction(q float64) float64 {
	return (1 - math.Pow(1-2*q, float64(b.k))) / 2
}

// EstimateL1 inverts the expected-Hamming relation to estimate the weighted
// ℓ₁ distance from an observed Hamming distance h. The estimate saturates at
// Scale()/2-equivalent distances when h approaches N/2 (the dampening region
// where, per the paper, precise large distances do not matter).
func (b *Builder) EstimateL1(h int) float64 {
	frac := float64(h) / float64(b.n)
	if frac >= 0.5 {
		frac = 0.5 - 1e-9
	}
	if b.k == 1 {
		// (1−(1−2q)^K)/2 inverts to q = frac for K = 1; skipping math.Pow
		// matters on estimator-heavy paths (rank pruning, BruteForceSketch).
		return frac * b.z
	}
	inner := 1 - 2*frac // (1−2q)^K
	q := (1 - math.Pow(inner, 1/float64(b.k))) / 2
	return q * b.z
}

func clamp(x, lo, hi float32) float32 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// builderMagic identifies the Builder binary encoding.
const builderMagic = uint32(0xFE44E701)

// MarshalBinary encodes the builder's full state — sizes, bounds and the
// sampled (i, t) pairs — so a persisted database keeps producing identical
// sketches after restart.
func (b *Builder) MarshalBinary() ([]byte, error) {
	total := b.n * b.k
	size := 4 + 4*3 + 8 + b.dim*12 + total*8
	buf := make([]byte, size)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], builderMagic)
	le.PutUint32(buf[4:], uint32(b.n))
	le.PutUint32(buf[8:], uint32(b.k))
	le.PutUint32(buf[12:], uint32(b.dim))
	le.PutUint64(buf[16:], math.Float64bits(b.z))
	off := 24
	for i := 0; i < b.dim; i++ {
		le.PutUint32(buf[off:], math.Float32bits(b.min[i]))
		le.PutUint32(buf[off+4:], math.Float32bits(b.max[i]))
		le.PutUint32(buf[off+8:], math.Float32bits(b.w[i]))
		off += 12
	}
	for j := 0; j < total; j++ {
		le.PutUint32(buf[off:], uint32(b.pairsI[j]))
		le.PutUint32(buf[off+4:], math.Float32bits(b.pairsT[j]))
		off += 8
	}
	return buf, nil
}

// UnmarshalBinary decodes a builder encoded by MarshalBinary.
func (b *Builder) UnmarshalBinary(data []byte) error {
	le := binary.LittleEndian
	if len(data) < 24 || le.Uint32(data[0:]) != builderMagic {
		return errors.New("sketch: bad builder encoding")
	}
	n := int(le.Uint32(data[4:]))
	k := int(le.Uint32(data[8:]))
	dim := int(le.Uint32(data[12:]))
	z := math.Float64frombits(le.Uint64(data[16:]))
	total := n * k
	want := 24 + dim*12 + total*8
	if n <= 0 || k <= 0 || dim <= 0 || len(data) != want {
		return fmt.Errorf("sketch: builder encoding is %d bytes, want %d", len(data), want)
	}
	*b = Builder{
		n: n, k: k, dim: dim, z: z,
		min:    make([]float32, dim),
		max:    make([]float32, dim),
		w:      make([]float32, dim),
		pairsI: make([]int32, total),
		pairsT: make([]float32, total),
	}
	off := 24
	for i := 0; i < dim; i++ {
		b.min[i] = math.Float32frombits(le.Uint32(data[off:]))
		b.max[i] = math.Float32frombits(le.Uint32(data[off+4:]))
		b.w[i] = math.Float32frombits(le.Uint32(data[off+8:]))
		off += 12
	}
	for j := 0; j < total; j++ {
		i := int32(le.Uint32(data[off:]))
		if i < 0 || int(i) >= dim {
			return fmt.Errorf("sketch: pair dimension %d out of range", i)
		}
		b.pairsI[j] = i
		b.pairsT[j] = math.Float32frombits(le.Uint32(data[off+4:]))
		off += 8
	}
	return nil
}

// MarshalSketch encodes a sketch as little-endian words.
func MarshalSketch(s Sketch) []byte {
	buf := make([]byte, 8*len(s))
	for i, w := range s {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return buf
}

// UnmarshalSketch decodes a sketch encoded by MarshalSketch.
func UnmarshalSketch(data []byte) (Sketch, error) {
	if len(data)%8 != 0 {
		return nil, errors.New("sketch: encoding not a multiple of 8 bytes")
	}
	s := make(Sketch, len(data)/8)
	for i := range s {
		s[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return s, nil
}
