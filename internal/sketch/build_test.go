package sketch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"ferret/internal/synth"
)

// scalarBuild is Algorithm 2 written plainly: bit n is the XOR over its K
// pairs of v[i] ≥ t.
func scalarBuild(b *Builder, v []float32) Sketch {
	s := make(Sketch, Words(b.n))
	for n := 0; n < b.n; n++ {
		var x uint64
		for k := 0; k < b.k; k++ {
			if v[b.pairsI[n*b.k+k]] >= b.pairsT[n*b.k+k] {
				x ^= 1
			}
		}
		s[n/64] |= x << (n % 64)
	}
	return s
}

// forEachBuildPath runs f with the build kernel this host installed, then
// with it forced off, so the portable loop runs on every host.
func forEachBuildPath(f func(path string)) {
	saved := buildK1ASM
	defer func() { buildK1ASM = saved }()
	if saved != nil {
		f("kernel")
	}
	buildK1ASM = nil
	f("portable")
}

// checkBuild fails unless Build and BuildTo both write scalarBuild's words.
// BuildTo writes into a longer, dirty buffer and must touch only its
// Words(N) prefix.
func checkBuild(t testing.TB, b *Builder, v []float32, what string) {
	t.Helper()
	want := scalarBuild(b, v)
	got := b.Build(v)
	dst := make([]uint64, len(want)+1)
	for i := range dst {
		dst[i] = 0xdeadbeefdeadbeef
	}
	b.BuildTo(dst, v)
	for w := range want {
		if got[w] != want[w] || dst[w] != want[w] {
			t.Fatalf("%s: word %d: Build %#x BuildTo %#x, want %#x", what, w, got[w], dst[w], want[w])
		}
	}
	if dst[len(want)] != 0xdeadbeefdeadbeef {
		t.Fatalf("%s: BuildTo wrote past word %d", what, len(want))
	}
}

// oddBuilder returns a builder over [−1, 1]^d whose encoded thresholds were
// edited before decoding: every ninth is NaN (bit 0 whatever the entry) and
// every eleventh −0, so signed zeros meet on both sides of the compare.
func oddBuilder(t testing.TB, n, k, d int) *Builder {
	t.Helper()
	p := params(n, k, d)
	for i := range p.Min {
		p.Min[i] = -1
	}
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	off := 24 + d*12
	for j := 0; j < n*k; j++ {
		at := off + j*8 + 4
		switch {
		case j%9 == 4:
			binary.LittleEndian.PutUint32(enc[at:], math.Float32bits(float32(math.NaN())))
		case j%11 == 6:
			binary.LittleEndian.PutUint32(enc[at:], math.Float32bits(float32(math.Copysign(0, -1))))
		}
	}
	var odd Builder
	if err := odd.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	return &odd
}

// oddVector fills v with entries inside and outside the box, signed zeros,
// infinities and NaN, then sets some entries exactly on a threshold.
func oddVector(b *Builder, v []float32, rng *rand.Rand) {
	for i := range v {
		switch rng.Intn(10) {
		case 0:
			v[i] = float32(math.Copysign(0, -1))
		case 1:
			v[i] = 0
		case 2:
			v[i] = 3 - 6*rng.Float32()
		case 3:
			v[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
		case 4:
			if rng.Intn(4) == 0 {
				v[i] = float32(math.NaN())
				break
			}
			fallthrough
		default:
			v[i] = 1 - 2*rng.Float32()
		}
	}
	for j := rng.Intn(5); j < b.n*b.k; j += 5 {
		if t := b.pairsT[j]; !math.IsNaN(float64(t)) {
			v[b.pairsI[j]] = t
		}
	}
}

// TestBuildMatchesScalar pins Build's and BuildTo's bits against the plain
// loop, with the kernel and without, for widths around and on word and
// sixteen-pair boundaries, dimensions from 1 to the shapes' 544, K 1 and 3,
// NaN and −0 thresholds, and entries on the thresholds, at ±0, ±Inf, NaN
// and outside the box.
func TestBuildMatchesScalar(t *testing.T) {
	forEachBuildPath(func(path string) {
		rng := rand.New(rand.NewSource(9))
		for _, n := range []int{1, 15, 16, 17, 63, 64, 65, 96, 130, 600, 800} {
			for _, d := range []int{1, 14, 37, 544} {
				for _, k := range []int{1, 3} {
					b := oddBuilder(t, n, k, d)
					v := make([]float32, d)
					for trial := 0; trial < 16; trial++ {
						oddVector(b, v, rng)
						checkBuild(t, b, v, path)
					}
				}
			}
		}
	})
}

// FuzzBuild checks the kernel and the portable loop against scalarBuild on
// fuzzed widths, dimensions, seeds and entries (four bytes an entry, so any
// float32 bit pattern, NaNs included, can arrive).
func FuzzBuild(f *testing.F) {
	f.Add(uint16(96), uint8(1), uint16(14), int64(201), []byte{0, 0, 0, 63, 0, 0, 128, 191})
	f.Add(uint16(800), uint8(1), uint16(544), int64(203), []byte{0, 0, 192, 127, 0, 0, 0, 128})
	f.Add(uint16(17), uint8(3), uint16(37), int64(5), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, n uint16, k uint8, d uint16, seed int64, data []byte) {
		p := params(1+int(n)%1024, 1+int(k)%3, 1+int(d)%600)
		p.Seed = seed
		b, err := NewBuilder(p)
		if err != nil {
			t.Fatal(err)
		}
		v := make([]float32, b.dim)
		if len(data) >= 4 {
			for i := range v {
				at := (4 * i) % (len(data) - len(data)%4)
				v[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[at:]))
			}
		}
		forEachBuildPath(func(path string) { checkBuild(t, b, v, path) })
	})
}

// TestUnmarshalRefusesOutOfRangePair: the build kernel reads v at every
// pair dimension unchecked, so a decoded pair outside [0, dim) is refused.
func TestUnmarshalRefusesOutOfRangePair(t *testing.T) {
	const d = 14
	good, _ := NewBuilder(params(96, 1, d))
	enc, _ := good.MarshalBinary()
	at := 24 + d*12 + 37*8 // pair 37's dimension
	for _, bad := range []uint32{d, d + 1, 1 << 31, math.MaxUint32} {
		edit := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint32(edit[at:], bad)
		var b Builder
		if err := b.UnmarshalBinary(edit); err == nil {
			t.Errorf("pair dimension %d accepted (dim %d)", int32(bad), d)
		}
	}
	binary.LittleEndian.PutUint32(enc[at:], d-1)
	var b Builder
	if err := b.UnmarshalBinary(enc); err != nil {
		t.Errorf("pair dimension %d refused: %v", d-1, err)
	}
}

// TestBuildDigests pins the sketches of the benchmark's two corpora: a
// SHA-256 over the words that its image builder (96 bits of 14-d, seed 201)
// and shape builder (800 bits of 544-d, seed 203) make of the first 2 000
// segments of MixedImageObjects and MixedShapeObjects at the benchmark's
// seed-1 corpus seed, 3. The digests were taken before the vector kernel
// existed, from the portable loop.
func TestBuildDigests(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		segs func() [][]float32
		want string
	}{
		{"image", Params{N: 96, K: 1, Min: uniformBox(14, 0), Max: uniformBox(14, 1), Seed: 201}, func() [][]float32 {
			var vs [][]float32
			for _, o := range synth.MixedImageObjects(200, 3) {
				for _, s := range o.Segments {
					vs = append(vs, s.Vec)
				}
			}
			return vs
		}, "39ea467be6cdb5628a0f0754e8394284dc0f0ba628fc2d4cb416e8780b037e59"},
		{"shape", Params{N: 800, K: 1, Min: uniformBox(544, 0), Max: uniformBox(544, 2), Seed: 203}, func() [][]float32 {
			var vs [][]float32
			for _, o := range synth.MixedShapeObjects(2000, 3) {
				vs = append(vs, o.Segments[0].Vec)
			}
			return vs
		}, "08fde0d8a9bc7fe26e6bb5802aea244906e40bf1352bbbfee7c93fe652cdacf9"},
	}
	for _, c := range cases {
		b, err := NewBuilder(c.p)
		if err != nil {
			t.Fatal(err)
		}
		vs := c.segs()
		if len(vs) < 2000 {
			t.Fatalf("%s: %d segments, want 2000", c.name, len(vs))
		}
		vs = vs[:2000]
		forEachBuildPath(func(path string) {
			h := sha256.New()
			var buf [8]byte
			for _, v := range vs {
				for _, w := range b.Build(v) {
					binary.LittleEndian.PutUint64(buf[:], w)
					h.Write(buf[:])
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("%s (%s): digest %s, want %s", c.name, path, got, c.want)
			}
		})
	}
}

func uniformBox(d int, x float32) []float32 {
	out := make([]float32, d)
	for i := range out {
		out[i] = x
	}
	return out
}

func BenchmarkBuild96Bit14D(b *testing.B) {
	bl, _ := NewBuilder(params(96, 1, 14))
	v := make([]float32, 14)
	for i := range v {
		v[i] = 0.5
	}
	checkBuild(b, bl, v, "set-up guard") // fails when the kernel's words differ from the scalar loop's
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl.Build(v)
	}
}

// BenchmarkBuild800Bit544D is the shape corpora's sketch: 800 bits of a
// 544-d vector whose entries vary, so every compare is a coin toss.
func BenchmarkBuild800Bit544D(b *testing.B) {
	bl, _ := NewBuilder(params(800, 1, 544))
	rng := rand.New(rand.NewSource(7))
	vs := make([][]float32, 64)
	for i := range vs {
		vs[i] = make([]float32, 544)
		for j := range vs[i] {
			vs[i][j] = rng.Float32()
		}
	}
	for _, v := range vs {
		checkBuild(b, bl, v, "set-up guard")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl.Build(vs[i%len(vs)])
	}
}
