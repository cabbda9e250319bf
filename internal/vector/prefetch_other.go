//go:build !amd64

package vector

import "unsafe"

// prefetch is Prefetch's no-op on architectures without the amd64 kernel.
func prefetch(p unsafe.Pointer, n uintptr) {}
