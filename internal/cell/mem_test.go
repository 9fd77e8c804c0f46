package cell

import (
	"fmt"
	"strings"
	"testing"
)

// panicText runs f and returns what it panicked with ("" if it did not).
func panicText(f func()) (text string) {
	defer func() {
		if r := recover(); r != nil {
			text = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// Main memory reads as zero before anything is written to it, is exactly
// MemSize long, and its two out-of-range failures keep their texts,
// whatever backs it.
func TestMainMemoryZeroAndBounded(t *testing.T) {
	m := testMachine(t, nil)
	if len(m.Mem()) != 4*MiB {
		t.Fatalf("len(Mem) = %d, want %d", len(m.Mem()), 4*MiB)
	}
	for _, off := range []int{0, 1 * MiB, 4*MiB - 4096} {
		for i, b := range m.Mem()[off : off+4096] {
			if b != 0 {
				t.Fatalf("never-written Mem[%d] = %d", off+i, b)
			}
		}
	}

	got := panicText(func() { m.Alloc(8*MiB, 16) })
	if want := "cell: out of simulated memory (8388608 requested at 0 of 4194304)"; got != want {
		t.Errorf("Alloc past MemSize: panic %q, want %q", got, want)
	}

	m.RunMain(func(h Host) {
		h.Wait(h.Run(0, "past", func(spu SPU) uint32 {
			spu.Get(0, 4*MiB, 16, 0)
			spu.WaitTagAll(1)
			return 0
		}))
	})
	got = panicText(func() { _ = m.Run() })
	if want := "cell: DMA exception: EA range [0x400000,0x400010) unmapped"; got != want {
		t.Errorf("DMA past MemSize: panic %q, want %q", got, want)
	}
}

// The names of the simulation processes are what a deadlock report and
// the engine's debug trace print; the MFC's are built once per SPE
// rather than per command and must read as they always have.
func TestProcessNames(t *testing.T) {
	m := testMachine(t, nil)
	src := m.Alloc(64, 16)
	var lines []string
	m.Engine().Trace = func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	m.RunMain(func(h Host) {
		h.Run(3, "reader", func(spu SPU) uint32 {
			spu.Get(0, src, 64, 0)
			spu.Put(0, src, 64, 0)
			spu.GetList(0, []ListElem{{EA: src, Size: 16}}, 0)
			spu.PutList(0, []ListElem{{EA: src, Size: 16}}, 0)
			spu.Sndsig(2, 1, 1, 0)
			spu.WaitTagAll(1)
			return spu.ReadInMbox() // nobody writes it
		})
	})
	err := m.Run()
	want := "sim: deadlock: live processes but no scheduled events (1 live: spe3:reader)"
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %s", err, want)
	}
	trace := strings.Join(lines, "\n")
	for _, name := range []string{"ppe:main", "spe3:reader", "mfc3:GET", "mfc3:PUT", "mfc3:GETL", "mfc3:PUTL", "mfc3:SNDSIG"} {
		if !strings.Contains(trace, " dispatch "+name+"\n") {
			t.Errorf("no dispatch of a process named %q in the engine trace", name)
		}
	}
}
