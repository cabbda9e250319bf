package server

import "sync"

// Pooled wire buffers (mbuf-style, per the zero-copy serving path): every
// response — text or binary — is encoded by appending into a buffer drawn
// from one of a few size-class pools and written to the socket in one call,
// replacing the per-command bufio.Writer and intermediate result-slice
// allocations. Buffers above the largest class are allocated directly and
// never pooled, so a single huge response cannot pin its memory forever.
//
// The poolescape analyzer tracks values drawn from the pool array exactly
// like plain sync.Pool values: a *wireBuf (or its byte slice) must stay
// confined to the call tree between getWireBuf and putWireBuf.

// wireClassSizes are the size classes. 512 B covers PING/COUNT/errors,
// 4 KiB a typical k=10 QUERY response, 64 KiB large batches, 512 KiB
// STATS/TELEMETRY dumps and worst-case batch responses.
var wireClassSizes = [...]int{512, 4 << 10, 64 << 10, 512 << 10}

const wireClasses = len(wireClassSizes)

// wireBuf is one pooled encode buffer; class is its pool index (-1 for
// oversize unpooled buffers).
type wireBuf struct {
	b     []byte
	class int
}

var wireBufPools [wireClasses]sync.Pool

// wireClass maps a size hint to the smallest class that fits (-1 when no
// class does).
func wireClass(n int) int {
	for c, size := range wireClassSizes {
		if n <= size {
			return c
		}
	}
	return -1
}

// getWireBuf returns a buffer with at least n bytes of capacity and zero
// length, and whether it had to allocate (a miss). The caller must hand it
// back with putWireBuf.
func getWireBuf(n int) (wb *wireBuf, miss bool) {
	c := wireClass(n)
	if c < 0 {
		return &wireBuf{b: make([]byte, 0, n), class: -1}, true
	}
	wb, ok := wireBufPools[c].Get().(*wireBuf)
	if !ok {
		return &wireBuf{b: make([]byte, 0, wireClassSizes[c]), class: c}, true
	}
	if cap(wb.b) < n {
		// A demoted buffer whose capacity sits below the hint inside the
		// same class: regrow to the full class size once.
		wb.b = make([]byte, 0, wireClassSizes[c])
		miss = true
	}
	wb.b = wb.b[:0]
	return wb, miss
}

// putWireBuf returns a buffer to its pool. Buffers that grew past their
// class (appends beyond the size hint) are demoted to the class that now
// fits, so pooled capacity converges on what responses actually need;
// oversize buffers are dropped for the garbage collector.
func putWireBuf(wb *wireBuf) {
	c := wireClass(cap(wb.b))
	if wb.class >= 0 && c == wb.class {
		wireBufPools[c].Put(wb)
		return
	}
	if c >= 0 {
		wb.class = c
		wireBufPools[c].Put(wb)
	}
}
