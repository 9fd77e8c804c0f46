package analyzer

import "testing"

// PoisonRecycled makes every StreamLoader fill each piece buffer with
// 0xA5, to its capacity, as the buffer returns for reuse, until tb ends.
// A merge, fold or later piece that reads a buffer after its window let
// it go then reads garbage, and the stream stops matching batch. Tests
// that call it must not run in parallel.
func PoisonRecycled(tb testing.TB) {
	recycleHook = func(p chunkStream) {
		fill(p.data[:cap(p.data)], 0xA5)
		fill(p.offs[:cap(p.offs)], 0xA5A5A5A5)
	}
	tb.Cleanup(func() { recycleHook = nil })
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}
