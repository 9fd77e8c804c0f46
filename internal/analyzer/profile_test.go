package analyzer

import (
	"bytes"
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio/tracetest"
)

func TestProfilePairs(t *testing.T) {
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		hd := h.Run(0, "pf", func(spu cell.SPU) uint32 {
			for i := 0; i < 5; i++ {
				spu.Get(0, 0, 4096, 0)
				spu.WaitTagAll(1)
			}
			spu.WriteOutMbox(1)
			return 0
		})
		h.ReadOutMbox(0)
		h.Wait(hd)
	})
	profs := Profile(tr)
	if len(profs) == 0 {
		t.Fatal("empty profile")
	}
	var wait *PairProfile
	for i := range profs {
		if profs[i].Enter == event.SPEWaitTagEnter {
			wait = &profs[i]
		}
	}
	if wait == nil || wait.Count != 5 {
		t.Fatalf("tag-wait profile = %+v", wait)
	}
	if wait.Ticks.Sum == 0 || wait.Ticks.Mean() <= 0 {
		t.Fatalf("tag-wait ticks = %+v", wait.Ticks)
	}
	// Sorted by total time descending.
	for i := 1; i < len(profs); i++ {
		if profs[i].Ticks.Sum > profs[i-1].Ticks.Sum {
			t.Fatal("profile not sorted by total time")
		}
	}
}

func TestWriteProfile(t *testing.T) {
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		h.Wait(h.Run(0, "wp", func(spu cell.SPU) uint32 {
			spu.Get(0, 0, 128, 0)
			spu.WaitTagAll(1)
			return 0
		}))
	})
	var buf bytes.Buffer
	WriteProfilePairs(tr, Profile(tr), &buf)
	out := buf.String()
	if !strings.Contains(out, "SPE_WAIT_TAG") || !strings.Contains(out, "total ticks") {
		t.Fatalf("profile output:\n%s", out)
	}
	if strings.Contains(out, "_ENTER ") {
		t.Fatalf("enter suffix not stripped:\n%s", out)
	}
}

func TestWriteIntervalsCSV(t *testing.T) {
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		h.Wait(h.Run(2, "iv", func(spu cell.SPU) uint32 {
			spu.Get(0, 0, 128, 0)
			spu.WaitTagAll(1)
			spu.Compute(500)
			return 0
		}))
	})
	var buf bytes.Buffer
	if err := WriteIntervalsCSV(tr, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "run,core,state") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "dma-wait") || !strings.Contains(out, "compute") {
		t.Fatalf("missing states:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[1:] {
		if !strings.HasPrefix(line, "0,2,") {
			t.Fatalf("bad row %q", line)
		}
	}
}

func TestProfileTruncatedUnmatchedEnter(t *testing.T) {
	// An enter without exit must not produce a pair (and not panic).
	tr := loadRows(t, tracetest.Row{Rec: event.Record{ID: event.SPEWaitTagEnter, Core: 0, Args: []uint64{1}}, Global: 10})
	if p := Profile(tr); len(p) != 0 {
		t.Fatalf("profile = %+v", p)
	}
}

func TestTagBreakdown(t *testing.T) {
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		h.Wait(h.Run(0, "tags", func(spu cell.SPU) uint32 {
			spu.Get(0, 0, 1024, 2)
			spu.Get(0, 0, 2048, 2)
			spu.Put(0, 0, 512, 7)
			spu.WaitTagAll(1<<2 | 1<<7)
			return 0
		}))
	})
	tags := TagBreakdown(tr)
	// Tags 2 and 7 from the app, plus trace-flush tags 30/31.
	byTag := map[int]TagStats{}
	for _, ts := range tags {
		byTag[ts.Tag] = ts
	}
	if byTag[2].Cmds != 2 || byTag[2].Bytes != 3072 {
		t.Fatalf("tag2 = %+v", byTag[2])
	}
	if byTag[7].Cmds != 1 || byTag[7].Bytes != 512 {
		t.Fatalf("tag7 = %+v", byTag[7])
	}
	for i := 1; i < len(tags); i++ {
		if tags[i].Bytes > tags[i-1].Bytes {
			t.Fatal("not sorted by bytes")
		}
	}
}
