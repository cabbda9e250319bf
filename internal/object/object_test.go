package object

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewNormalizesWeights(t *testing.T) {
	o, err := New("a", []float32{2, 6}, [][]float32{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Segments[0].Weight; math.Abs(float64(got)-0.25) > 1e-6 {
		t.Errorf("weight[0] = %g, want 0.25", got)
	}
	if got := o.Segments[1].Weight; math.Abs(float64(got)-0.75) > 1e-6 {
		t.Errorf("weight[1] = %g, want 0.75", got)
	}
	if err := o.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNewMismatchedLengths(t *testing.T) {
	if _, err := New("a", []float32{1}, [][]float32{{1}, {2}}); err == nil {
		t.Fatal("want error for mismatched weights/vectors")
	}
}

func TestNormalizeZeroWeights(t *testing.T) {
	o := Object{Segments: []Segment{
		{Weight: 0, Vec: []float32{1}},
		{Weight: 0, Vec: []float32{2}},
		{Weight: 0, Vec: []float32{3}},
	}}
	o.NormalizeWeights()
	for i, s := range o.Segments {
		if math.Abs(float64(s.Weight)-1.0/3) > 1e-6 {
			t.Errorf("segment %d weight %g, want 1/3", i, s.Weight)
		}
	}
}

func TestNormalizeEmptyObject(t *testing.T) {
	var o Object
	o.NormalizeWeights() // must not panic
	if o.TotalWeight() != 0 {
		t.Errorf("TotalWeight = %g, want 0", o.TotalWeight())
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		obj  Object
		want string
	}{
		{"empty", Object{}, "no segments"},
		{"zero-dim", Object{Segments: []Segment{{Weight: 1, Vec: nil}}}, "zero-dimensional"},
		{"dim mismatch", Object{Segments: []Segment{
			{Weight: 0.5, Vec: []float32{1, 2}},
			{Weight: 0.5, Vec: []float32{1}},
		}}, "dimension"},
		{"negative weight", Object{Segments: []Segment{
			{Weight: -0.5, Vec: []float32{1}},
			{Weight: 1.5, Vec: []float32{2}},
		}}, "negative weight"},
		{"nan vec", Object{Segments: []Segment{
			{Weight: 1, Vec: []float32{float32(math.NaN())}},
		}}, "non-finite"},
		{"unnormalized", Object{Segments: []Segment{
			{Weight: 0.3, Vec: []float32{1}},
		}}, "sum to"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.obj.Validate()
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestSingle(t *testing.T) {
	o := Single("gene-1", []float32{1, 2, 3})
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.Dim() != 3 || len(o.Segments) != 1 || o.Segments[0].Weight != 1 {
		t.Errorf("unexpected single-segment object: %+v", o)
	}
}

func TestCloneIsDeep(t *testing.T) {
	o, _ := New("a", []float32{1}, [][]float32{{1, 2}})
	c := o.Clone()
	c.Segments[0].Vec[0] = 99
	if o.Segments[0].Vec[0] == 99 {
		t.Fatal("Clone shares vector storage")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	o, _ := New("x", []float32{1, 3}, [][]float32{{0.5, -1.25, 3e7}, {2, 0, -0.001}})
	got, err := Unmarshal(o.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Segments) != 2 || got.Dim() != 3 {
		t.Fatalf("round trip shape: %+v", got)
	}
	for i := range got.Segments {
		if got.Segments[i].Weight != o.Segments[i].Weight {
			t.Errorf("segment %d weight changed", i)
		}
		for j := range got.Segments[i].Vec {
			if got.Segments[i].Vec[j] != o.Segments[i].Vec[j] {
				t.Errorf("segment %d dim %d changed", i, j)
			}
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	single := Single("", []float32{1})
	for _, data := range [][]byte{nil, {1, 2, 3}, make([]byte, 8), append(single.Marshal(), 0)} {
		if _, err := Unmarshal(data); err == nil && data != nil && len(data) != 8 {
			t.Errorf("Unmarshal(%d bytes) succeeded, want error", len(data))
		}
	}
	// An encoding claiming segments but truncated must fail.
	o := Single("", []float32{1, 2, 3})
	enc := o.Marshal()
	if _, err := Unmarshal(enc[:len(enc)-2]); err == nil {
		t.Error("truncated encoding accepted")
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(weights []float32, dims uint8) bool {
		if len(weights) == 0 || len(weights) > 16 {
			return true
		}
		d := int(dims%8) + 1
		vecs := make([][]float32, len(weights))
		for i := range weights {
			if weights[i] < 0 || math.IsNaN(float64(weights[i])) || math.IsInf(float64(weights[i]), 0) {
				weights[i] = 0.5
			}
			vecs[i] = make([]float32, d)
			for j := range vecs[i] {
				vecs[i][j] = float32(i*j) * 0.25
			}
		}
		o, err := New("p", weights, vecs)
		if err != nil {
			return true
		}
		got, err := Unmarshal(o.Marshal())
		if err != nil {
			return false
		}
		if len(got.Segments) != len(o.Segments) || got.Dim() != o.Dim() {
			return false
		}
		for i := range got.Segments {
			if got.Segments[i].Weight != o.Segments[i].Weight {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestViewAliasesEncoding: View fills the caller's buffer without
// allocating, and on hosts that view in place its vectors are the
// encoding's own bytes.
func TestViewAliasesEncoding(t *testing.T) {
	o, _ := New("v", []float32{1, 3}, [][]float32{{0.5, -1.25, 3e7}, {2, 0, -0.001}})
	enc := o.Marshal()
	buf := make([]Segment, 0, 2)
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = View(enc, buf) }); allocs != 0 && viewInPlace {
		t.Fatalf("View allocates %.0f objects into a buffer of room enough", allocs)
	}
	segs, err := View(enc, buf)
	if err != nil || len(segs) != 2 || segs[1].Vec[2] != -0.001 || segs[1].Weight != 0.75 {
		t.Fatalf("View = %+v, %v", segs, err)
	}
	if viewInPlace {
		enc[len(enc)-1] ^= 0x80 // the sign bit of the last float
		if segs[1].Vec[2] != 0.001 {
			t.Fatalf("viewed vector does not alias the encoding: %v", segs[1].Vec)
		}
	}
}

// FuzzObjectView: on any input View and Unmarshal either both fail or give
// bit-identical segments, and neither panics.
func FuzzObjectView(f *testing.F) {
	two, _ := New("x", []float32{1, 3}, [][]float32{{0.5, -1.25, 3e7}, {2, 0, -0.001}})
	one := Single("s", []float32{1, 2, 3})
	for _, enc := range [][]byte{two.Marshal(), one.Marshal(), (&Object{}).Marshal()} {
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(enc[:4])
	}
	implausible := make([]byte, 8)
	implausible[3], implausible[7] = 0xff, 0xff
	f.Add(implausible)
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0}) // one zero-dimensional segment, weight missing
	f.Fuzz(func(t *testing.T, data []byte) {
		segs, errV := View(data, nil)
		o, errU := Unmarshal(data)
		if (errV == nil) != (errU == nil) {
			t.Fatalf("View error %v, Unmarshal error %v", errV, errU)
		}
		if errV != nil {
			return
		}
		if len(segs) != len(o.Segments) {
			t.Fatalf("View gives %d segments, Unmarshal %d", len(segs), len(o.Segments))
		}
		for i, s := range segs {
			u := o.Segments[i]
			if math.Float32bits(s.Weight) != math.Float32bits(u.Weight) || len(s.Vec) != len(u.Vec) {
				t.Fatalf("segment %d: View %v/%d floats, Unmarshal %v/%d", i, s.Weight, len(s.Vec), u.Weight, len(u.Vec))
			}
			for j := range s.Vec {
				if math.Float32bits(s.Vec[j]) != math.Float32bits(u.Vec[j]) {
					t.Fatalf("segment %d dim %d: View %v, Unmarshal %v", i, j, s.Vec[j], u.Vec[j])
				}
			}
		}
	})
}

// TestValidateFiniteValues: Validate rejects exactly the floats whose
// exponent bits are all ones (±Inf and every NaN) and accepts every finite
// value, the extremes and signed zero included, as an entry and as a weight.
func TestValidateFiniteValues(t *testing.T) {
	for _, c := range []struct {
		name string
		x    float32
		ok   bool
	}{
		{"+Inf", float32(math.Inf(1)), false},
		{"-Inf", float32(math.Inf(-1)), false},
		{"NaN", float32(math.NaN()), false},
		{"NaN with sign and payload", math.Float32frombits(0xffc00001), false},
		{"MaxFloat32", math.MaxFloat32, true},
		{"-MaxFloat32", -math.MaxFloat32, true},
		{"smallest subnormal", math.SmallestNonzeroFloat32, true},
		{"-0", float32(math.Copysign(0, -1)), true},
	} {
		o := Object{Segments: []Segment{{Weight: 1, Vec: []float32{0.5, c.x, 0.25}}}}
		if err := o.Validate(); (err == nil) != c.ok {
			t.Errorf("entry %s: Validate() = %v, want ok %v", c.name, err, c.ok)
		}
		if c.ok {
			continue // a finite weight other than 1 fails the sum check instead
		}
		w := Object{Segments: []Segment{{Weight: c.x, Vec: []float32{1}}}}
		if err := w.Validate(); err == nil {
			t.Errorf("weight %s accepted", c.name)
		}
	}
}
