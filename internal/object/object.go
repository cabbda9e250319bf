// Package object defines the generic multi-feature data object
// representation used throughout the Ferret toolkit.
//
// Following the paper (§2), a feature-rich data object X is a set of
// weighted feature vectors
//
//	X = { <X_1, w(X_1)>, ..., <X_k, w(X_k)> }
//
// where each X_i is a point in a D-dimensional space and k varies from
// object to object. Weights describe the relative importance of each
// segment and are normalized to sum to 1.
package object

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"unsafe"
)

// ID identifies a data object within one Ferret database. IDs are assigned
// by the metadata manager at ingest time and are dense (useful for
// slice-indexed side tables).
type ID uint64

// Segment is one weighted feature vector of an object: the result of
// segmenting the raw data and extracting a D-dimensional feature vector for
// the segment (paper §4.2.1).
type Segment struct {
	// Weight is the normalized importance of this segment within its
	// object. The weights of all segments of one object sum to 1.
	Weight float32
	// Vec is the D-dimensional feature vector describing the segment.
	Vec []float32
}

// Object is the toolkit's generic representation of one feature-rich data
// object: a variable-size set of weighted segments. It corresponds to the
// paper's ObjectT plug-in structure.
type Object struct {
	// ID is the engine-assigned identifier; zero until ingested.
	ID ID
	// Key is the external name of the object (typically a file path or a
	// dataset-specific label). Keys are unique within a database.
	Key string
	// Segments holds the weighted feature vectors. All vectors of one
	// object must share the same dimensionality.
	Segments []Segment
}

// Dim returns the dimensionality of the object's feature vectors, or 0 for
// an object with no segments.
func (o *Object) Dim() int {
	if len(o.Segments) == 0 {
		return 0
	}
	return len(o.Segments[0].Vec)
}

// TotalWeight returns the sum of all segment weights. A well-formed object
// has total weight 1 (up to rounding).
func (o *Object) TotalWeight() float64 {
	var s float64
	for _, seg := range o.Segments {
		s += float64(seg.Weight)
	}
	return s
}

// NormalizeWeights rescales the segment weights in place so they sum to 1.
// Objects whose weights are all zero get uniform weights. Calling this on an
// object with no segments is a no-op.
func (o *Object) NormalizeWeights() {
	if len(o.Segments) == 0 {
		return
	}
	total := o.TotalWeight()
	if total <= 0 {
		w := float32(1) / float32(len(o.Segments))
		for i := range o.Segments {
			o.Segments[i].Weight = w
		}
		return
	}
	for i := range o.Segments {
		o.Segments[i].Weight = float32(float64(o.Segments[i].Weight) / total)
	}
}

// Validate checks structural invariants: at least one segment, consistent
// dimensionality, finite vector entries, non-negative weights summing to
// approximately 1.
func (o *Object) Validate() error {
	if len(o.Segments) == 0 {
		return errors.New("object: no segments")
	}
	d := len(o.Segments[0].Vec)
	if d == 0 {
		return errors.New("object: zero-dimensional feature vector")
	}
	for i, seg := range o.Segments {
		if len(seg.Vec) != d {
			return fmt.Errorf("object: segment %d has dimension %d, want %d", i, len(seg.Vec), d)
		}
		if seg.Weight < 0 {
			return fmt.Errorf("object: segment %d has negative weight %g", i, seg.Weight)
		}
		if !finite(seg.Weight) {
			return fmt.Errorf("object: segment %d has non-finite weight", i)
		}
		for j, x := range seg.Vec {
			if !finite(x) {
				return fmt.Errorf("object: segment %d dim %d is non-finite", i, j)
			}
		}
	}
	if t := o.TotalWeight(); math.Abs(t-1) > 1e-3 {
		return fmt.Errorf("object: segment weights sum to %g, want 1", t)
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf: whether its exponent
// bits are not all ones.
func finite(x float32) bool { return math.Float32bits(x)&0x7f800000 != 0x7f800000 }

// Clone returns a deep copy of the object.
func (o *Object) Clone() Object {
	c := Object{ID: o.ID, Key: o.Key, Segments: make([]Segment, len(o.Segments))}
	for i, seg := range o.Segments {
		c.Segments[i] = Segment{Weight: seg.Weight, Vec: append([]float32(nil), seg.Vec...)}
	}
	return c
}

// New builds an object from parallel weight and vector slices, normalizing
// the weights. It is the convenience constructor used by plug-in
// implementations.
func New(key string, weights []float32, vecs [][]float32) (Object, error) {
	if len(weights) != len(vecs) {
		return Object{}, fmt.Errorf("object: %d weights for %d vectors", len(weights), len(vecs))
	}
	o := Object{Key: key, Segments: make([]Segment, len(vecs))}
	for i := range vecs {
		o.Segments[i] = Segment{Weight: weights[i], Vec: vecs[i]}
	}
	o.NormalizeWeights()
	if err := o.Validate(); err != nil {
		return Object{}, err
	}
	return o, nil
}

// Single builds a one-segment object with weight 1, the representation used
// by data types such as 3D shape descriptors and genomic expression rows
// where each object has exactly one feature vector (paper §5.3, §5.4).
func Single(key string, vec []float32) Object {
	return Object{Key: key, Segments: []Segment{{Weight: 1, Vec: vec}}}
}

// Marshal encodes the object's segments into a compact binary form suitable
// for the metadata store. Layout (little endian):
//
//	uint32 segment count k
//	uint32 dimension D
//	k * (float32 weight, D * float32 vec)
//
// ID and Key are stored separately by the metastore and are not encoded.
func (o *Object) Marshal() []byte {
	buf := make([]byte, o.MarshalSize())
	o.MarshalTo(buf)
	return buf
}

// MarshalSize returns the length of the Marshal encoding.
func (o *Object) MarshalSize() int { return 8 + len(o.Segments)*(4+4*o.Dim()) }

// MarshalTo writes the Marshal encoding into buf[:o.MarshalSize()]. On the
// hosts where View aliases the encoding, each vector is one copy.
func (o *Object) MarshalTo(buf []byte) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(o.Segments)))
	binary.LittleEndian.PutUint32(buf[4:], uint32(o.Dim()))
	off := 8
	for _, seg := range o.Segments {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(seg.Weight))
		off += 4
		if viewInPlace && len(seg.Vec) > 0 {
			off += copy(buf[off:], unsafe.Slice((*byte)(unsafe.Pointer(&seg.Vec[0])), 4*len(seg.Vec)))
			continue
		}
		for _, x := range seg.Vec {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(x))
			off += 4
		}
	}
}

// Unmarshal decodes segments produced by Marshal into an object that owns
// its vectors: View's segments with all vectors copied into one new array.
func Unmarshal(data []byte) (Object, error) {
	segs, err := View(data, nil)
	if err != nil {
		return Object{}, err
	}
	if len(segs) > 0 {
		d := len(segs[0].Vec)
		flat := make([]float32, len(segs)*d)
		for i := range segs {
			v := flat[i*d : (i+1)*d : (i+1)*d]
			copy(v, segs[i].Vec)
			segs[i].Vec = v
		}
	}
	return Object{Segments: segs}, nil
}

// viewInPlace reports that View can alias an encoding's floats: the host
// stores float32 little-endian and loads it from any address.
const viewInPlace = runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64"

// View decodes a Marshal encoding into segs[:0], growing it only when its
// capacity is short, and returns the segments. On amd64 and arm64 each
// Segment.Vec aliases data's float bytes, so data must stay unmodified
// while the segments are in use; other hosts get a decoded copy. A caller
// that views one object at a time into the same buffer allocates nothing.
func View(data []byte, segs []Segment) ([]Segment, error) {
	if len(data) < 8 {
		return segs[:0], errors.New("object: truncated encoding")
	}
	k := int(binary.LittleEndian.Uint32(data[0:]))
	d := int(binary.LittleEndian.Uint32(data[4:]))
	// Caps keep the size arithmetic below free of overflow and bound the
	// allocation an adversarial header could request.
	if k < 0 || d < 0 || k > 1<<24 || d > 1<<24 {
		return segs[:0], errors.New("object: implausible counts in encoding")
	}
	if want := 8 + k*(4+4*d); len(data) != want {
		return segs[:0], fmt.Errorf("object: encoding is %d bytes, want %d", len(data), want)
	}
	segs = slices.Grow(segs[:0], k)[:k]
	for i, off := 0, 8; i < k; i, off = i+1, off+4+4*d {
		segs[i] = Segment{
			Weight: math.Float32frombits(binary.LittleEndian.Uint32(data[off:])),
			Vec:    floats(data[off+4 : off+4+4*d]),
		}
	}
	return segs, nil
}

// floats returns b's little-endian float32s as a slice whose capacity is
// its length: b itself where the host allows (viewInPlace), a decoded copy
// elsewhere.
func floats(b []byte) []float32 {
	d := len(b) / 4
	if d == 0 {
		return nil
	}
	if viewInPlace {
		return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), d)
	}
	vec := make([]float32, d)
	for j := range vec {
		vec[j] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*j:]))
	}
	return vec
}
