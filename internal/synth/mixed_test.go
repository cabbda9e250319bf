package synth

import (
	"hash/fnv"
	"testing"

	"ferret/internal/object"
)

// TestMixedObjectsDigests pins the speed corpora byte for byte: every
// benchmark and experiment that draws MixedImageObjects, MixedShapeObjects
// or MixedAudioObjects ranks these exact vectors, so a generator change that
// moves one bit would silently move every trajectory measured on them. The
// digest is FNV-64a over each object's key and its Marshal encoding, in
// order.
func TestMixedObjectsDigests(t *testing.T) {
	cases := []struct {
		name string
		gen  func(int, int64) []object.Object
		n    int
		seed int64
		want uint64
	}{
		{"image", MixedImageObjects, 300, 3, 0xc081e4614848d59b},
		{"image", MixedImageObjects, 300, 1001, 0xec5c13496a7e561c},
		{"shape", MixedShapeObjects, 200, 3, 0x7590771b38371587},
		{"shape", MixedShapeObjects, 200, 17, 0x2a538c1dddb120bd},
		{"audio", MixedAudioObjects, 100, 17, 0x77af9485f02438cc},
		{"audio", MixedAudioObjects, 100, 405, 0x26b1e128c4db11a8},
	}
	for _, c := range cases {
		h := fnv.New64a()
		for _, o := range c.gen(c.n, c.seed) {
			h.Write([]byte(o.Key))
			h.Write(o.Marshal())
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s n=%d seed=%d: digest %#016x, want %#016x", c.name, c.n, c.seed, got, c.want)
		}
	}
}
