package harness

import (
	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/cellsync"
)

// runE12 compares the two cellsync barrier implementations — atomic
// (main-storage reservation traffic with spin backoff) vs signal fabric
// (sndsig collect/release through the EIB) — across party counts.
// Expected shape: the signal barrier is several times faster and scales
// more gently with parties, mirroring measured Cell barrier studies.
func runE12(quick bool) ([]*Table, error) {
	rounds := 50
	parties := []int{2, 4, 8}
	if quick {
		rounds = 10
		parties = []int{2, 8}
	}
	measure := func(n int, useSignal bool) (uint64, error) {
		mc := cell.DefaultConfig()
		mc.MemSize = 8 * cell.MiB
		m := cell.NewMachine(mc)
		ab := cellsync.NewBarrier(m, 1, n)
		sb := cellsync.NewSignalBarrier(2, n, 9)
		m.RunMain(func(h cell.Host) {
			var hs []*cell.SPEHandle
			for i := 0; i < n; i++ {
				hs = append(hs, h.Run(i, "barrier", func(spu cell.SPU) uint32 {
					for r := 0; r < rounds; r++ {
						if useSignal {
							sb.Wait(spu)
						} else {
							ab.Wait(spu)
						}
					}
					return 0
				}))
			}
			for _, hd := range hs {
				h.Wait(hd)
			}
		})
		if err := m.Run(); err != nil {
			return 0, err
		}
		return m.Now() / uint64(rounds), nil
	}
	t := newTable("parties\tatomic cycles/round\tsignal cycles/round\tsignal speedup", "%d\t%d\t%d\t%.2fx")
	for _, n := range parties {
		a, err := measure(n, false)
		if err != nil {
			return nil, err
		}
		s, err := measure(n, true)
		if err != nil {
			return nil, err
		}
		t.add(n, a, s, float64(a)/float64(s))
	}
	return []*Table{t}, nil
}
