package core

import (
	"bytes"
	"testing"

	"github.com/celltrace/pdt/internal/cell"
)

// growSpy is a destination with Grow, as a bytes.Buffer is: it records
// what was asked for and how much arrived afterwards.
type growSpy struct {
	bytes.Buffer
	grows    int
	asked    int
	lenAtAsk int
}

func (g *growSpy) Grow(n int) {
	g.grows++
	g.asked = n
	g.lenAtAsk = g.Len()
	g.Buffer.Grow(n)
}

// writerOnly hides Grow.
type writerOnly struct{ w *bytes.Buffer }

func (w writerOnly) Write(p []byte) (int, error) { return w.w.Write(p) }

// WriteTrace reserves the rest of the file once, and exactly: what it
// asks for after the metadata is what it then writes, for a sealed trace
// and for a crash trace, and the bytes do not depend on the reservation.
func TestWriteTraceGrowsOnce(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Workload = "grow"
	_, s := traceRun(t, cfg, nil, func(h cell.Host) {
		var hs []*cell.SPEHandle
		for spe := 0; spe < 3; spe++ {
			hs = append(hs, h.Run(spe, "worker", func(spu cell.SPU) uint32 {
				for i := 0; i < 200; i++ {
					spu.Compute(100)
					spu.WriteOutMbox(uint32(i))
				}
				return 0
			}))
		}
		for i := 0; i < 200; i++ {
			for spe := 0; spe < 3; spe++ {
				h.ReadOutMbox(spe)
			}
		}
		for _, hd := range hs {
			h.Wait(hd)
		}
	})
	for _, crash := range []bool{false, true} {
		write := s.WriteTrace
		if crash {
			write = s.WriteCrashTrace
		}
		var spy growSpy
		if err := write(&spy); err != nil {
			t.Fatal(err)
		}
		if spy.grows != 1 || spy.asked != spy.Len()-spy.lenAtAsk || spy.asked < 1000 {
			t.Errorf("crash=%v: %d Grow calls, asked for %d bytes, wrote %d after asking",
				crash, spy.grows, spy.asked, spy.Len()-spy.lenAtAsk)
		}
		var plain bytes.Buffer
		if err := write(writerOnly{&plain}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain.Bytes(), spy.Bytes()) {
			t.Errorf("crash=%v: trace bytes differ with and without Grow", crash)
		}
	}
}
