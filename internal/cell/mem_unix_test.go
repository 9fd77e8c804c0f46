//go:build unix && go1.24

package cell

import (
	"runtime"
	"testing"
)

// A machine with the largest main memory the address map allows (1 GiB,
// where the local-store window begins) costs what it touches: building
// it and running one DMA to its last page allocates no gigabyte.
func TestLargestMachineCostsWhatItTouches(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	m := testMachine(t, func(c *Config) { c.MemSize = LSBaseEA })
	const last = LSBaseEA - 4096
	m.RunMain(func(h Host) {
		h.Wait(h.Run(0, "put", func(spu SPU) uint32 {
			for i := range spu.LS()[:4096] {
				spu.LS()[i] = byte(i)
			}
			spu.Put(0, last, 4096, 0)
			spu.WaitTagAll(1)
			return 0
		}))
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	mem := m.Mem()
	if len(mem) != LSBaseEA || mem[last+255] != 255 || mem[last-1] != 0 || mem[LSBaseEA/2] != 0 {
		t.Fatalf("len %d, mem[last+255] = %d, mem[last-1] = %d, mem[half] = %d",
			len(mem), mem[last+255], mem[last-1], mem[LSBaseEA/2])
	}

	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 16*MiB {
		t.Fatalf("a 1 GiB machine and one DMA allocated %d bytes of heap", got)
	}
}
