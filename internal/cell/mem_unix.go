//go:build unix && go1.24

package cell

import (
	"runtime"
	"syscall"
)

// newMainMemory returns size bytes of zeroed main storage for m as an
// anonymous private mapping: the kernel supplies a zero page on first
// touch, so a machine costs the pages its workload uses, not MemSize
// (a heap allocation is cleared in full by the runtime every time the
// collector hands the span back out — 64 MiB of memclr per machine for
// workloads that touch 1–2 MB). The mapping is released when m becomes
// unreachable; the cleanup holds the mapping, never the machine. If the
// kernel refuses the mapping the memory comes from the heap, as on
// platforms without mmap.
func newMainMemory(m *Machine, size int) []byte {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, size)
	}
	runtime.AddCleanup(m, func(mem []byte) { syscall.Munmap(mem) }, mem)
	return mem
}
