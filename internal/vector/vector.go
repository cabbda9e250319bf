// Package vector provides the distance functions used as segment distance
// functions in the Ferret toolkit (paper §2, §5): the ℓ_p norms (ℓ₁ with its
// capped and batched kernels) and the correlation distances used by the
// genomic plugin.
//
// All functions take []float32 feature vectors (the toolkit's native
// representation) and compute in float64 for accuracy. Vectors passed to any
// distance must have equal length; mismatched lengths panic, since that is a
// programming error in a plug-in, not a data error.
package vector

import (
	"math"
	"sort"
)

// Func is the segment distance function type: the distance between two
// feature vectors in D-dimensional space (the paper's seg_distance).
type Func func(a, b []float32) float64

func checkLen(a, b []float32) {
	if len(a) != len(b) {
		panic("vector: dimension mismatch")
	}
}

// l1Block64 is an optional vectorized kernel computing Σ|aᵢ−bᵢ| over
// exactly 64 elements in float64, set at startup on CPUs with AVX-512
// (see l1_amd64.go). Both L1 and L1Capped route whole blocks through the
// same kernel, so the two stay bit-identical to each other regardless of
// which path is active; the kernel's lane-parallel reduction order differs
// from the scalar sum, so absolute results may differ from the scalar
// build by ordinary float64 rounding.
//
//ferret:noalloc
var l1Block64 func(a, b *float32) float64

// l1Tail4 is an optional AVX form of L1x4's scalar tail, bit-identical to
// it: each lane sums in index order (see l1_amd64.go).
//
//ferret:noalloc
var l1Tail4 func(a, b0, b1, b2, b3 *float32, n int, s0, s1, s2, s3 float64) (r0, r1, r2, r3 float64)

// l1Scalar64 is the scalar 64-element block used when no vector kernel is
// available; its accumulation order matches the plain element loop.
//
// Every scalar |aᵢ−bᵢ| in this file goes through math.Abs, which compiles to a
// sign-bit mask: an `if d < 0 { d = -d }` is a data-dependent branch that
// mispredicts on about half the elements of unrelated vectors (123 ns vs 24 ns
// for a 14-d pair, BenchmarkL1_14d_RandomPairs). The sums are bit-identical
// either way.
func l1Scalar64(a, b []float32) float64 {
	a = a[:64]
	b = b[:64]
	var s float64
	for i := range a {
		s += math.Abs(float64(a[i]) - float64(b[i]))
	}
	return s
}

// L1 returns the ℓ₁ (Manhattan) distance Σ|aᵢ−bᵢ|.
func L1(a, b []float32) float64 {
	checkLen(a, b)
	var s float64
	i := 0
	for ; i+64 <= len(a); i += 64 {
		if l1Block64 != nil {
			s += l1Block64(&a[i], &b[i])
		} else {
			s += l1Scalar64(a[i:], b[i:])
		}
	}
	for ; i < len(a); i++ {
		s += math.Abs(float64(a[i]) - float64(b[i]))
	}
	return s
}

// L1Capped returns min(L1(a, b), limit), abandoning the sum as soon as it
// reaches limit. Because the partial sums are nondecreasing and accumulate in
// the same order as L1 (both sum 64-dimension blocks through the same kernel),
// the result is bit-identical to capping the full L1 afterwards — an early
// exit never changes the answer, only skips work. The check runs once per
// block so the fully-summed case stays at L1 speed. limit must be positive.
func L1Capped(a, b []float32, limit float64) float64 {
	checkLen(a, b)
	var s float64
	i := 0
	for ; i+64 <= len(a); i += 64 {
		if l1Block64 != nil {
			s += l1Block64(&a[i], &b[i])
		} else {
			s += l1Scalar64(a[i:], b[i:])
		}
		if s >= limit {
			return limit
		}
	}
	for ; i < len(a); i++ {
		s += math.Abs(float64(a[i]) - float64(b[i]))
	}
	if s > limit {
		return limit
	}
	return s
}

// L1x4 returns L1Capped(a, bₖ, limit) for four vectors at once, the EMD
// cost fill's row kernel (+Inf limit: uncapped L1). Each lane sums in L1's
// exact order — blocks through the same kernel, then the tail element by
// element — so every result is bit-identical to its one-vector call; only
// the four tail chains now run side by side. A lane whose sum reaches limit
// after a block skips its remaining blocks, as L1Capped returns early.
//
//ferret:noalloc
func L1x4(a, b0, b1, b2, b3 []float32, limit float64) (s0, s1, s2, s3 float64) {
	n := len(a)
	if len(b0) != n || len(b1) != n || len(b2) != n || len(b3) != n {
		panic("vector: dimension mismatch")
	}
	i := 0
	for ; i+64 <= n; i += 64 {
		s0 = l1BlockAdd(s0, limit, a[i:], b0[i:])
		s1 = l1BlockAdd(s1, limit, a[i:], b1[i:])
		s2 = l1BlockAdd(s2, limit, a[i:], b2[i:])
		s3 = l1BlockAdd(s3, limit, a[i:], b3[i:])
	}
	a, b0, b1, b2, b3 = a[i:], b0[i:n], b1[i:n], b2[i:n], b3[i:n]
	if l1Tail4 != nil && len(a) > 0 {
		s0, s1, s2, s3 = l1Tail4(&a[0], &b0[0], &b1[0], &b2[0], &b3[0], len(a), s0, s1, s2, s3)
	} else {
		for k, ak := range a {
			x := float64(ak)
			s0 += math.Abs(x - float64(b0[k]))
			s1 += math.Abs(x - float64(b1[k]))
			s2 += math.Abs(x - float64(b2[k]))
			s3 += math.Abs(x - float64(b3[k]))
		}
	}
	// The sums are never −0, so min caps exactly as L1Capped compares.
	return min(s0, limit), min(s1, limit), min(s2, limit), min(s3, limit)
}

// l1BlockAdd adds the ℓ₁ sum of a[:64] and b[:64], through the block kernel
// L1 uses, to s — unless s has already reached limit.
func l1BlockAdd(s, limit float64, a, b []float32) float64 {
	switch {
	case s >= limit:
		return s
	case l1Block64 != nil:
		return s + l1Block64(&a[0], &b[0])
	}
	return s + l1Scalar64(a, b)
}

// l1Rows is an optional AVX-512 form of L1Transposed for len(a) ≥ 1, set at
// startup (see l1_amd64.go): each lane sums in index order from +0 and is
// capped as Go's min caps — the portable loop's exact sequence, eight lanes
// to a register.
//
//ferret:noalloc
var l1Rows func(a *float32, dim int, bt *float32, stride int, dst *float64, n int, limit float64)

// L1Transposed is the EMD cost fill's row kernel for vectors under 64
// dimensions: dst[j] = min(Σₖ |a[k] − bⱼ[k]|, limit) for every column j <
// len(dst), where the bⱼ are stored transposed — bt[k·stride+j] is bⱼ[k] —
// so that one pass over a's dimensions serves all the columns at once. Each
// column sums in index order from +0 and is then capped, which is L1x4's
// tail exactly: below 64 dimensions every result is bit-identical to L1x4's
// lane, and so to L1Capped(a, bⱼ, limit) on NaN-free input (+Inf limit:
// uncapped L1). stride must be a
// multiple of 8, at least len(dst), and bt exactly len(a)·stride long; the
// lanes between len(dst) and stride are computed and discarded.
//
//ferret:noalloc
func L1Transposed(a, bt []float32, stride int, dst []float64, limit float64) {
	n := len(dst)
	if stride%8 != 0 || stride < n || len(bt) != len(a)*stride {
		panic("vector: dimension mismatch")
	}
	if n == 0 {
		return
	}
	if l1Rows != nil && len(a) > 0 {
		l1Rows(&a[0], len(a), &bt[0], stride, &dst[0], n, limit)
		return
	}
	clear(dst)
	for k, ak := range a {
		x := float64(ak)
		for j, b := range bt[k*stride : k*stride+n] {
			dst[j] += math.Abs(x - float64(b))
		}
	}
	// The sums are never −0, so min caps exactly as L1Capped compares.
	for j, s := range dst {
		dst[j] = min(s, limit)
	}
}

// L2 returns the ℓ₂ (Euclidean) distance sqrt(Σ(aᵢ−bᵢ)²).
func L2(a, b []float32) float64 {
	checkLen(a, b)
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// Lp returns the ℓ_p distance (Σ|aᵢ−bᵢ|^p)^(1/p) for p ≥ 1.
func Lp(p float64) Func {
	if p < 1 {
		panic("vector: Lp requires p >= 1")
	}
	return func(a, b []float32) float64 {
		checkLen(a, b)
		var s float64
		for i := range a {
			d := math.Abs(float64(a[i]) - float64(b[i]))
			s += math.Pow(d, p)
		}
		return math.Pow(s, 1/p)
	}
}

// Pearson returns the Pearson correlation distance 1 − r(a, b), where r is
// the sample Pearson correlation coefficient. Constant vectors (zero
// variance) are treated as uncorrelated with everything: distance 1.
// Used by the genomic plugin (paper §5.4).
func Pearson(a, b []float32) float64 {
	checkLen(a, b)
	if len(a) == 0 {
		return 0
	}
	n := float64(len(a))
	var sa, sb float64
	for i := range a {
		sa += float64(a[i])
		sb += float64(b[i])
	}
	ma, mb := sa/n, sb/n
	var cov, va, vb float64
	for i := range a {
		da := float64(a[i]) - ma
		db := float64(b[i]) - mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	// A constant vector accumulates exact-zero squared deviations, so the
	// zero-variance guard is an exact comparison by construction.
	//lint:ignore floatcmp exact zero is the only value a constant vector's variance sum can take
	if va == 0 || vb == 0 {
		return 1
	}
	r := cov / math.Sqrt(va*vb)
	// Clamp against rounding drift so the distance stays in [0, 2].
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return 1 - r
}

// Spearman returns the Spearman rank correlation distance 1 − ρ(a, b):
// Pearson correlation computed on the ranks of the values, with average
// ranks for ties. Used by the genomic plugin (paper §5.4).
func Spearman(a, b []float32) float64 {
	checkLen(a, b)
	ra := ranks(a)
	rb := ranks(b)
	return Pearson(ra, rb)
}

// ranks returns the fractional ranks of v (1-based, ties averaged).
func ranks(v []float32) []float32 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return v[idx[i]] < v[idx[j]] })
	r := make([]float32, n)
	for i := 0; i < n; {
		j := i
		// Tie groups are defined by bit-identical input values: ranking
		// must give equal inputs equal ranks, so this is exact on purpose.
		//lint:ignore floatcmp rank ties are bit-identical input values, not computed results
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float32(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}
