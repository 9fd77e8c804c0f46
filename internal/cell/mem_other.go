//go:build !(unix && go1.24)

package cell

// newMainMemory returns size bytes of zeroed main storage for m from the
// Go heap (no mmap, or no runtime.AddCleanup to release a mapping with).
func newMainMemory(_ *Machine, size int) []byte { return make([]byte, size) }
