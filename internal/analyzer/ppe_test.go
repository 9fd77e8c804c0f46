package analyzer

import (
	"bytes"
	"testing"

	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/core/traceio/tracetest"
)

func TestSummarizePPE(t *testing.T) {
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		src := h.Alloc(1024, 128)
		hd := h.Run(0, "w", func(spu cell.SPU) uint32 {
			spu.Compute(20000)
			spu.WriteOutMbox(1)
			spu.Compute(1000)
			return 0
		})
		h.DMAGet(0, 0, src, 512, 3)
		h.DMAWaitTagAll(0, 1<<3)
		if h.ReadOutMbox(0) != 1 {
			t.Error("mbox value wrong")
		}
		h.WriteInMbox(0, 9) // SPE never reads it; write completes instantly
		h.Wait(hd)
	})
	st := Summarize(tr).PPE
	if st.Records == 0 {
		t.Fatal("no PPE records")
	}
	if st.SPEWaits != 1 || st.WaitTicks == 0 {
		t.Fatalf("SPE waits = %d/%d", st.SPEWaits, st.WaitTicks)
	}
	if st.MboxReads != 1 || st.MboxWrites != 1 {
		t.Fatalf("mbox ops = %d/%d", st.MboxReads, st.MboxWrites)
	}
	if st.MboxWaitTicks == 0 {
		t.Fatal("no mbox wait time despite blocking read")
	}
	if st.ProxyGets != 1 || st.ProxyBytes != 512 || st.ProxyWaits != 1 {
		t.Fatalf("proxy = %d gets, %d bytes, %d waits", st.ProxyGets, st.ProxyBytes, st.ProxyWaits)
	}
}

// TestSummarizePPEPairsPerThread: two PPE threads wait on SPEs at
// overlapping times, the main thread over [10, 20) and PPE.1 over
// [12, 40). Each exit closes its own thread's wait: 2 waits, 38 ticks,
// batch and streamed alike.
func TestSummarizePPEPairsPerThread(t *testing.T) {
	wait := func(id event.ID, core uint8, global uint64, args ...uint64) tracetest.Row {
		return tracetest.Row{Rec: event.Record{ID: id, Core: core, Args: args}, Global: global, Run: -1}
	}
	const ppe1 = event.CorePPE - 1
	img := tracetest.Encode(t, traceio.Meta{}, []tracetest.Row{
		wait(event.PPEWaitEnter, event.CorePPE, 10, 0),
		wait(event.PPEWaitEnter, ppe1, 12, 1),
		wait(event.PPEWaitExit, event.CorePPE, 20, 0, 0),
		wait(event.PPEWaitExit, ppe1, 40, 1, 0),
	}, 0)
	tr, err := Load(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	check := func(how string, st PPEStats) {
		t.Helper()
		if st.SPEWaits != 2 || st.WaitTicks != 38 {
			t.Fatalf("%s: %d waits, %d ticks; want 2 waits, 38 ticks", how, st.SPEWaits, st.WaitTicks)
		}
	}
	check("batch", Summarize(tr).PPE)
	for _, window := range []int64{0, 512} {
		l := NewStreamLoader(StreamOptions{Limits: Limits{StreamWindowBytes: window}})
		if _, err := l.Write(img); err != nil {
			t.Fatal(err)
		}
		res, err := l.Finish()
		if err != nil {
			t.Fatal(err)
		}
		check("stream", res.Summary.PPE)
	}
}

func TestParallelismSeriesAndConcurrency(t *testing.T) {
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		var hs []*cell.SPEHandle
		for i := 0; i < 4; i++ {
			hs = append(hs, h.Run(i, "p", func(spu cell.SPU) uint32 {
				spu.Compute(100000)
				return 0
			}))
		}
		for _, hd := range hs {
			h.Wait(hd)
		}
	})
	pts := ParallelismSeries(tr, 10)
	if len(pts) != 10 {
		t.Fatalf("points = %d", len(pts))
	}
	// Mid-run all four SPEs compute simultaneously.
	if pts[5].Busy < 3.5 {
		t.Fatalf("mid-run parallelism = %.2f, want ~4", pts[5].Busy)
	}
	ec := Summarize(tr).EffectiveConcurrency()
	if ec < 3 || ec > 4.01 {
		t.Fatalf("effective concurrency = %.2f, want ~4", ec)
	}
}

func TestParallelismEmptyTrace(t *testing.T) {
	if ParallelismSeries(&Trace{}, 4) != nil {
		t.Fatal("series on empty trace")
	}
	if Summarize(&Trace{}).EffectiveConcurrency() != 0 {
		t.Fatal("concurrency on empty trace")
	}
}
