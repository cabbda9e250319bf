package vector

import "unsafe"

// Prefetch hints the CPU to pull every cache line s's elements occupy into
// all cache levels (PREFETCHT0 per 64-byte line on amd64; a no-op on other
// architectures). It reads and writes nothing, cannot fault, and changes no
// value, so issuing it ahead of a random read is free to be wrong: a hint for
// a line never used costs one issue slot and some bandwidth.
//
//ferret:noalloc
func Prefetch[E any](s []E) {
	var e E
	prefetch(unsafe.Pointer(unsafe.SliceData(s)), uintptr(len(s))*unsafe.Sizeof(e))
}
