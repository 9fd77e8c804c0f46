package analyzer

import (
	"bytes"
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
)

func TestCriticalPathSkewedLoad(t *testing.T) {
	// One SPE does 10x the work: the path must be dominated by it.
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		var hs []*cell.SPEHandle
		for i := 0; i < 4; i++ {
			work := uint64(10000)
			if i == 2 {
				work = 100000
			}
			w := work
			hs = append(hs, h.Run(i, "cp", func(spu cell.SPU) uint32 {
				spu.Compute(w)
				return 0
			}))
		}
		for _, hd := range hs {
			h.Wait(hd)
		}
	})
	cp := ComputeCriticalPath(tr)
	if cp.Total == 0 || len(cp.Segments) == 0 {
		t.Fatal("empty critical path")
	}
	if cp.CoreTicks[2] == 0 {
		t.Fatal("heavy SPE not on the path")
	}
	// The heavy SPE must dominate the other SPEs on the path.
	for _, c := range []uint8{0, 1, 3} {
		if cp.CoreTicks[c] > cp.CoreTicks[2]/2 {
			t.Fatalf("SPE%d has %d path ticks vs heavy SPE's %d", c, cp.CoreTicks[c], cp.CoreTicks[2])
		}
	}
	// Segments are chronological and non-overlapping.
	for i := 1; i < len(cp.Segments); i++ {
		if cp.Segments[i].Start < cp.Segments[i-1].End {
			t.Fatalf("segments overlap: %+v then %+v", cp.Segments[i-1], cp.Segments[i])
		}
	}
}

func TestCriticalPathCrossesMailbox(t *testing.T) {
	// PPE waits on a mailbox value the SPE produces late: the path must
	// include a cross hop through the mailbox edge.
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		hd := h.Run(0, "mx", func(spu cell.SPU) uint32 {
			spu.Compute(50000)
			spu.WriteOutMbox(1)
			return 0
		})
		if h.ReadOutMbox(0) != 1 {
			t.Error("wrong value")
		}
		h.Compute(100)
		h.Wait(hd)
	})
	cp := ComputeCriticalPath(tr)
	foundCross := false
	for _, s := range cp.Segments {
		if s.Cross {
			foundCross = true
		}
	}
	if !foundCross {
		t.Fatalf("no cross-core hop on the path: %+v", cp.Segments)
	}
	// The SPE's long compute must be attributed to the SPE, not the PPE.
	if cp.CoreTicks[0] < cp.CoreTicks[event.CorePPE] {
		t.Fatalf("path attribution wrong: SPE %d vs PPE %d",
			cp.CoreTicks[0], cp.CoreTicks[event.CorePPE])
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	cp := ComputeCriticalPath(&Trace{})
	if cp.Total != 0 || len(cp.Segments) != 0 {
		t.Fatal("nonempty path from empty trace")
	}
	var buf bytes.Buffer
	WriteCriticalPathFrom(cp, &buf, 5)
	if !strings.Contains(buf.String(), "empty") {
		t.Fatalf("output: %s", buf.String())
	}
}

func TestWriteCriticalPath(t *testing.T) {
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		h.Wait(h.Run(1, "wcp", func(spu cell.SPU) uint32 {
			spu.Compute(5000)
			return 0
		}))
	})
	var buf bytes.Buffer
	WriteCriticalPathFrom(ComputeCriticalPath(tr), &buf, 5)
	out := buf.String()
	for _, want := range []string{"critical path:", "SPE1", "PPE", "largest segments"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}
