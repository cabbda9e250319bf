package vector

import "unsafe"

// prefetch issues PREFETCHT0 for each 64-byte line of [p, p+n); n = 0 issues
// none (see prefetch_amd64.s).
//
//go:noescape
func prefetch(p unsafe.Pointer, n uintptr)
