package main

// Recycled request bodies. Every analysis request reads its whole body
// into one buffer; without reuse the runtime hands out, and zeroes, a
// fresh one per request — on a warm hit the largest cost after the
// SHA-256. A server keeps the buffers of finished requests on a small
// free list instead, bounded by count and by bytes so that idle buffers
// stay a fixed, small part of the heap.

import (
	"slices"
	"sync"
	"sync/atomic"
)

// bodyPoolBytes bounds the bytes a body free list keeps: four 4 MiB
// buffers, one per default admission slot, each large enough for the
// benchmark's 3 MB trace. A buffer larger than this is dropped after its
// request, so one near-cap upload is never pinned.
const bodyPoolBytes = 16 << 20

// poisonRecycled, when set, fills every buffer offered back to a free
// list with 0xA5 to its capacity, kept or not: a request that still read
// its body after giving it back would read garbage. Tests only.
var poisonRecycled atomic.Bool

// bodyPool is a free list of request-body buffers, at most maxCount of
// them holding at most maxBytes of capacity together. A buffer taken
// from it belongs to one request until that request gives it back.
type bodyPool struct {
	maxCount int
	maxBytes int64

	mu    sync.Mutex
	free  [][]byte // by capacity, smallest first
	bytes int64    // capacity of the buffers in free
}

// get takes the smallest free buffer that holds hint+1 bytes (any, for
// no hint) off the list, or returns nil when none does: a declared
// length no free buffer holds is read as if the list were empty.
func (p *bodyPool) get(hint int64) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, b := range p.free {
		if int64(cap(b)) > hint {
			p.free = slices.Delete(p.free, i, i+1)
			p.bytes -= int64(cap(b))
			return b[:0]
		}
	}
	return nil
}

// put offers back a buffer whose request is done with it. The buffer is
// kept when the bounds allow it once smaller buffers are dropped,
// smallest first; otherwise it is dropped and the list stays as it was.
func (p *bodyPool) put(b []byte) {
	n := int64(cap(b))
	if poisonRecycled.Load() {
		b = b[:n]
		for i := range b {
			b[i] = 0xA5
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	drop, freed := 0, int64(0)
	for len(p.free)-drop >= p.maxCount || p.bytes-freed+n > p.maxBytes {
		if drop == len(p.free) || int64(cap(p.free[drop])) >= n {
			return
		}
		freed += int64(cap(p.free[drop]))
		drop++
	}
	p.free = slices.Delete(p.free, 0, drop)
	at := len(p.free)
	for at > 0 && int64(cap(p.free[at-1])) > n {
		at--
	}
	p.free = slices.Insert(p.free, at, b[:0])
	p.bytes += n - freed
}
