package analyzer

import (
	"bytes"
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core"
)

func gapTrace(t *testing.T) *Trace {
	t.Helper()
	return simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		h.Wait(h.Run(0, "gappy", func(spu cell.SPU) uint32 {
			spu.Get(0, 0, 64, 0)
			spu.WaitTagAll(1)
			spu.Compute(400000) // 10000 timebase ticks of silence
			spu.Get(0, 0, 64, 0)
			spu.WaitTagAll(1)
			return 0
		}))
	})
}

func TestFindGaps(t *testing.T) {
	tr := gapTrace(t)
	gaps := FindGaps(tr, 5000)
	if len(gaps) != 1 {
		t.Fatalf("gaps = %+v", gaps)
	}
	if gaps[0].Dur() < 9000 || gaps[0].Core != 0 {
		t.Fatalf("gap = %+v", gaps[0])
	}
	// A huge threshold finds nothing.
	if g := FindGaps(tr, 1<<40); len(g) != 0 {
		t.Fatalf("gaps at huge threshold: %+v", g)
	}
}

func TestSuggestGapThreshold(t *testing.T) {
	tr := gapTrace(t)
	th := SuggestGapThreshold(tr)
	if th < 10 {
		t.Fatalf("threshold = %d", th)
	}
	gaps := FindGaps(tr, th)
	if len(gaps) == 0 {
		t.Fatal("auto threshold misses the obvious gap")
	}
	if SuggestGapThreshold(&Trace{}) != 10 {
		t.Fatal("empty-trace threshold not floored")
	}
}

func TestWriteGaps(t *testing.T) {
	tr := gapTrace(t)
	var buf bytes.Buffer
	min := SuggestGapThreshold(tr)
	WriteGapsFound(min, FindGaps(tr, min), 5, &buf)
	out := buf.String()
	for _, want := range []string{"event-free", "SPE0", "hint"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}
