// Package hot seeds noalloc violations and the sanctioned amortized-growth
// idioms on //ferret:noalloc functions.
package hot

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

type counter struct{ n atomic.Int64 }

type scratch struct {
	buf  []int
	dist []int32
}

// score is allocation-free and unannotated: calls to it are fine anywhere.
func score(a, b uint64) int { return bits.OnesCount64(a ^ b) }

// build allocates; noalloc callers must not reach it.
func build(n int) []int { return make([]int, n) }

// clean is the sanctioned shape: guarded growth, self-append, allocation-
// free callees, and atomics.
//
//ferret:noalloc
func clean(sc *scratch, c *counter, words []uint64, q uint64, n int) int {
	if cap(sc.dist) < n {
		sc.dist = make([]int32, n) // guarded: amortized growth
	}
	total := 0
	for _, w := range words {
		h := score(w, q)
		total += h
		sc.buf = append(sc.buf, h) // self-append: monotone into capacity
	}
	c.n.Add(int64(total))
	return total
}

// wordBytes views words as bytes: package unsafe's operations are
// compile-time and allocate nothing.
//
//ferret:noalloc
func wordBytes(words []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), uintptr(len(words))*unsafe.Sizeof(words[0]))
}

// kernel is installed with an allocation-free implementation; calls through
// the annotated variable are trusted.
//
//ferret:noalloc
var kernel func(words []uint64, q uint64) int

//ferret:noalloc
func viaKernel(words []uint64, q uint64) int {
	return kernel(words, q)
}

//ferret:noalloc
func makes(n int) []int {
	return make([]int, n) // want "noalloc: makes is //ferret:noalloc but calls make"
}

//ferret:noalloc
func callsAllocator(n int) int {
	s := build(n) // want "noalloc: callsAllocator is //ferret:noalloc but calls build, which allocates: calls make"
	return len(s)
}

//ferret:noalloc
func closes(x int) func() int {
	return func() int { return x } // want "noalloc: closes is //ferret:noalloc but creates a closure"
}

//ferret:noalloc
func growsForeign(dst, src []int) []int {
	return append(dst, src...) // want "noalloc: growsForeign is //ferret:noalloc but append may grow"
}

//ferret:noalloc
func concats(a, b string) string {
	return a + "/" + b // want "noalloc: concats is //ferret:noalloc but concatenates strings"
}

//ferret:noalloc
func stringifies(b []byte) string {
	return string(b) // want "noalloc: stringifies is //ferret:noalloc but converts to string"
}

//ferret:noalloc
func boxes(v int) any {
	return any(v) // want "noalloc: boxes is //ferret:noalloc but converts to any"
}

//ferret:noalloc
func external(v int) {
	fmt.Println(v) // want "noalloc: external is //ferret:noalloc but calls fmt.Println"
}

//ferret:noalloc
func tolerated(n int) []int {
	//lint:ignore noalloc demo: cold path behind a feature flag, measured free at runtime
	return make([]int, n)
}
