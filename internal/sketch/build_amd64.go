package sketch

// buildK1 is the AVX-512F K = 1 build kernel (build_amd64.s): it writes
// words sketch words into dst, bit j of word w being v[pi[64w+j]] ≥
// pt[64w+j], sixteen pairs per gather-compare step.
//
//go:noescape
func buildK1(dst *uint64, v *float32, pi *int32, pt *float32, words int)

func init() {
	if detectAVX512F() {
		buildK1ASM = buildK1AVX512
	}
}

// buildK1AVX512 runs buildK1 over dst. The kernel's gathers are unchecked
// reads of v; they stay inside it because every pair index is below the
// builder's dimension (NewBuilder draws them so, UnmarshalBinary refuses any
// other) and BuildTo has checked len(v) against it. pi and pt are padded to
// whole words, so they hold 64·len(dst) entries.
func buildK1AVX512(dst []uint64, v []float32, pi []int32, pt []float32) {
	_ = pi[64*len(dst)-1]
	_ = pt[64*len(dst)-1]
	buildK1(&dst[0], &v[0], &pi[0], &pt[0], len(dst))
}
