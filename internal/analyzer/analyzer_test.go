package analyzer

import (
	"bytes"
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/core/traceio/tracetest"
)

// buildTrace constructs a trace in memory directly through the writer (for
// precise control over contents).
func buildTrace(t *testing.T, meta traceio.Meta, chunks ...traceio.Chunk) *Trace {
	t.Helper()
	var buf bytes.Buffer
	w, err := traceio.NewWriter(&buf, traceio.Header{
		Version: traceio.Version, NumSPEs: 8, TimebaseDiv: 40, ClockHz: core.NominalClockHz,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMeta(&meta); err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if err := w.WriteChunk(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// loadRows loads rows as tracetest.Encode writes them, with no limit on
// the records per chunk.
func loadRows(t *testing.T, rows ...tracetest.Row) *Trace {
	t.Helper()
	tr, err := Load(bytes.NewReader(tracetest.Encode(t, traceio.Meta{}, rows, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func enc(t *testing.T, recs ...event.Record) []byte {
	t.Helper()
	var b []byte
	for i := range recs {
		var err error
		b, err = recs[i].AppendTo(b)
		if err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// simTrace runs main on a traced machine and loads the resulting trace.
func simTrace(t *testing.T, cfg core.Config, main func(h cell.Host)) *Trace {
	t.Helper()
	mc := cell.DefaultConfig()
	mc.MemSize = 32 * cell.MiB
	m := cell.NewMachine(mc)
	s := core.NewSession(m, cfg)
	s.Attach()
	m.RunMain(main)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestClockCorrelation(t *testing.T) {
	// Anchor at timebase 1000: an SPE record with elapsed 50 lands at
	// global 1050, interleaving correctly with PPE records.
	meta := traceio.Meta{Anchors: []traceio.Anchor{{SPE: 0, Timebase: 1000, Loaded: 0xFFFFFFFF, Program: "p"}}}
	spe := enc(t,
		event.Record{ID: event.SPEProgramStart, Core: 0, Flags: event.FlagDecrTime, Time: 0, Args: []uint64{1}},
		event.Record{ID: event.SPEProgramEnd, Core: 0, Flags: event.FlagDecrTime, Time: 50, Args: []uint64{0}},
	)
	ppe := enc(t,
		event.Record{ID: event.StringDef, Core: event.CorePPE, Flags: event.FlagHasStr, Time: 990, Args: []uint64{1}, Str: "p"},
		event.Record{ID: event.PPESPEStart, Core: event.CorePPE, Time: 995, Args: []uint64{0, 1}},
		event.Record{ID: event.PPEWaitExit, Core: event.CorePPE, Time: 1060, Args: []uint64{0, 0}},
	)
	tr := buildTrace(t, meta,
		traceio.Chunk{Core: event.CorePPE, AnchorIdx: traceio.NoAnchor, Data: ppe},
		traceio.Chunk{Core: 0, AnchorIdx: 0, Data: spe},
	)
	wantOrder := []event.ID{event.StringDef, event.PPESPEStart, event.SPEProgramStart, event.SPEProgramEnd, event.PPEWaitExit}
	if tr.NumEvents() != len(wantOrder) {
		t.Fatalf("events = %d", tr.NumEvents())
	}
	s := tr.Columns()
	for i, id := range wantOrder {
		if s.ID[i] != id {
			t.Fatalf("event %d = %v, want %v", i, s.ID[i], id)
		}
	}
	if s.Global[2] != 1000 || s.Global[3] != 1050 {
		t.Fatalf("correlated times: %d, %d", s.Global[2], s.Global[3])
	}
	if tr.StringRef(1) != "p" {
		t.Fatalf("StringRef = %q", tr.StringRef(1))
	}
	if tr.StringRef(99) == "" {
		t.Fatal("unknown ref should yield placeholder")
	}
}

func TestLoadRejectsBadAnchorIndex(t *testing.T) {
	spe := enc(t, event.Record{ID: event.SPEProgramStart, Core: 0, Flags: event.FlagDecrTime, Time: 0, Args: []uint64{1}})
	var buf bytes.Buffer
	w, _ := traceio.NewWriter(&buf, traceio.Header{Version: traceio.Version, NumSPEs: 8, TimebaseDiv: 40})
	w.WriteMeta(&traceio.Meta{}) // no anchors
	w.WriteChunk(traceio.Chunk{Core: 0, AnchorIdx: 0, Data: spe})
	w.Close()
	if _, err := Load(&buf); err == nil {
		t.Fatal("bad anchor index accepted")
	}
}

func TestValidateCleanTrace(t *testing.T) {
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		hd := h.Run(0, "w", func(spu cell.SPU) uint32 {
			spu.Get(0, 0, 256, 1)
			spu.WaitTagAll(1 << 1)
			spu.WriteOutMbox(5)
			return 0
		})
		h.ReadOutMbox(0)
		h.Wait(hd)
	})
	issues := Validate(tr)
	if len(Errors(issues)) != 0 {
		t.Fatalf("clean trace has errors: %v", issues)
	}
}

func TestValidateDetectsUnmatchedEnter(t *testing.T) {
	meta := traceio.Meta{Anchors: []traceio.Anchor{{SPE: 0, Timebase: 0, Program: "p"}}}
	spe := enc(t,
		event.Record{ID: event.SPEProgramStart, Core: 0, Flags: event.FlagDecrTime, Time: 0, Args: []uint64{1}},
		event.Record{ID: event.SPEWaitTagEnter, Core: 0, Flags: event.FlagDecrTime, Time: 5, Args: []uint64{1}},
		event.Record{ID: event.SPEProgramEnd, Core: 0, Flags: event.FlagDecrTime, Time: 9, Args: []uint64{0}},
	)
	tr := buildTrace(t, meta, traceio.Chunk{Core: 0, AnchorIdx: 0, Data: spe})
	issues := Validate(tr)
	if len(Errors(issues)) == 0 {
		t.Fatalf("unmatched enter not detected: %v", issues)
	}
}

func TestValidateDetectsBackwardsTime(t *testing.T) {
	// Two chunks of core 0 whose time ranges overlap by two records: the
	// second chunk opens before both of the first's. The batch merge puts
	// them in order. A stream holds back only each core's latest record
	// when it cuts a window (the tracer's chunks overlap by at most one),
	// so with the cut between the chunks it folds 150, then 100.
	img := tracetest.Encode(t, traceio.Meta{}, []tracetest.Row{
		{Rec: event.Record{ID: event.SPEUserEvent, Core: 0, Args: []uint64{1, 0, 0}}, Global: 150},
		{Rec: event.Record{ID: event.SPEUserEvent, Core: 0, Args: []uint64{2, 0, 0}}, Global: 160},
		{Rec: event.Record{ID: event.SPEUserEvent, Core: 0, Args: []uint64{3, 0, 0}}, Global: 100},
	}, 2)
	backwards := func(issues []Issue) bool {
		for _, i := range issues {
			if strings.Contains(i.Msg, "backwards") {
				return true
			}
		}
		return false
	}
	tr, err := Load(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if issues := Validate(tr); backwards(issues) {
		t.Fatalf("batch load is merged, yet time went backwards: %v", issues)
	}
	l := NewStreamLoader(StreamOptions{Validate: true, Limits: Limits{StreamWindowBytes: 512}})
	if _, err := l.Write(img); err != nil {
		t.Fatal(err)
	}
	res, err := l.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !backwards(res.Trace.Issues) {
		t.Fatalf("backwards time not detected: %v", res.Trace.Issues)
	}
}

func TestValidateMailboxConservation(t *testing.T) {
	meta := traceio.Meta{Groups: "mailbox|host"}
	ppe := enc(t,
		event.Record{ID: event.PPEReadOutMboxEnter, Core: event.CorePPE, Time: 1, Args: []uint64{0}},
		event.Record{ID: event.PPEReadOutMboxExit, Core: event.CorePPE, Time: 2, Args: []uint64{0, 7}},
	)
	tr := buildTrace(t, meta, traceio.Chunk{Core: event.CorePPE, AnchorIdx: traceio.NoAnchor, Data: ppe})
	issues := Validate(tr)
	found := false
	for _, i := range issues {
		if strings.Contains(i.Msg, "conservation") {
			found = true
		}
	}
	if !found {
		t.Fatalf("conservation violation not detected: %v", issues)
	}
}

func TestIntervalsBasic(t *testing.T) {
	// Program: start(0) compute(10) waitEnter(10) waitExit(30) compute end(40).
	meta := traceio.Meta{Anchors: []traceio.Anchor{{SPE: 2, Timebase: 0, Program: "p"}}}
	spe := enc(t,
		event.Record{ID: event.SPEProgramStart, Core: 2, Flags: event.FlagDecrTime, Time: 0, Args: []uint64{1}},
		event.Record{ID: event.SPEWaitTagEnter, Core: 2, Flags: event.FlagDecrTime, Time: 10, Args: []uint64{1}},
		event.Record{ID: event.SPEWaitTagExit, Core: 2, Flags: event.FlagDecrTime, Time: 30, Args: []uint64{1, 1}},
		event.Record{ID: event.SPEProgramEnd, Core: 2, Flags: event.FlagDecrTime, Time: 40, Args: []uint64{0}},
	)
	tr := buildTrace(t, meta, traceio.Chunk{Core: 2, AnchorIdx: 0, Data: spe})
	ivs := RunIntervals(tr, 0)
	want := []struct {
		st   State
		s, e uint64
	}{
		{StateCompute, 0, 10},
		{StateStallDMA, 10, 30},
		{StateCompute, 30, 40},
	}
	if len(ivs) != len(want) {
		t.Fatalf("intervals = %+v", ivs)
	}
	for i, w := range want {
		if ivs[i].State != w.st || ivs[i].Start != w.s || ivs[i].End != w.e {
			t.Fatalf("interval %d = %+v, want %+v", i, ivs[i], w)
		}
	}
}

func TestIntervalsCoverRunExactly(t *testing.T) {
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		var hs []*cell.SPEHandle
		for i := 0; i < 4; i++ {
			hs = append(hs, h.Run(i, "w", func(spu cell.SPU) uint32 {
				for j := 0; j < 20; j++ {
					spu.Get(0, 0, 1024, 0)
					spu.WaitTagAll(1)
					spu.Compute(500)
				}
				return 0
			}))
		}
		for _, hd := range hs {
			h.Wait(hd)
		}
	})
	if errs := Errors(Validate(tr)); len(errs) != 0 {
		t.Fatalf("validation errors: %v", errs)
	}
	s := Summarize(tr)
	for _, rs := range s.Runs {
		var total uint64
		for _, st := range States() {
			total += rs.StateTicks[st]
		}
		if total != rs.Wall() {
			t.Fatalf("run %d: states sum %d != wall %d", rs.Run, total, rs.Wall())
		}
		if rs.StateTicks[StateStallDMA] == 0 {
			t.Fatalf("run %d has no DMA wait despite blocking waits", rs.Run)
		}
	}
}

func TestSummarizeDMAStats(t *testing.T) {
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		src := h.Alloc(64*1024, 128)
		h.Wait(h.Run(0, "dma", func(spu cell.SPU) uint32 {
			for j := 0; j < 10; j++ {
				spu.Get(0, src, 4096, 0)
				spu.WaitTagAll(1)
			}
			spu.Put(0, src, 2048, 1)
			spu.WaitTagAll(1 << 1)
			return 0
		}))
	})
	s := Summarize(tr)
	if len(s.DMA) != 1 {
		t.Fatalf("DMA summaries = %d", len(s.DMA))
	}
	d := s.DMA[0]
	if d.Gets != 10 || d.Puts != 1 {
		t.Fatalf("gets/puts = %d/%d", d.Gets, d.Puts)
	}
	if d.BytesIn != 40960 || d.BytesOut != 2048 {
		t.Fatalf("bytes = %d/%d", d.BytesIn, d.BytesOut)
	}
	if d.Waits != 11 || d.WaitTicks.Count != 11 || d.WaitTicks.Mean() <= 0 {
		t.Fatalf("waits = %+v", d.WaitTicks)
	}
	if d.SizeBytes.Max != 4096 {
		t.Fatalf("size max = %d", d.SizeBytes.Max)
	}
}

func TestSummarizeLoadImbalance(t *testing.T) {
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		var hs []*cell.SPEHandle
		for i := 0; i < 4; i++ {
			work := uint64(1000)
			if i == 0 {
				work = 100000 // heavy SPE
			}
			w := work
			hs = append(hs, h.Run(i, "skew", func(spu cell.SPU) uint32 {
				spu.Compute(w)
				return 0
			}))
		}
		for _, hd := range hs {
			h.Wait(hd)
		}
	})
	s := Summarize(tr)
	if s.LoadImbalance < 2 {
		t.Fatalf("imbalance = %.2f, want > 2 for skewed load", s.LoadImbalance)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 1024, 1 << 39, 1 << 45} {
		h.Add(v)
	}
	if h.Count != 8 {
		t.Fatalf("count = %d", h.Count)
	}
	if h.Max != 1<<45 {
		t.Fatalf("max = %d", h.Max)
	}
	if h.Mean() <= 0 {
		t.Fatal("mean <= 0")
	}
	if h.Buckets[0] != 2 { // 0 and 1
		t.Fatalf("bucket0 = %d", h.Buckets[0])
	}
	if h.Buckets[1] != 2 { // 2 and 3
		t.Fatalf("bucket1 = %d", h.Buckets[1])
	}
	var empty Histogram
	if empty.Mean() != 0 {
		t.Fatal("empty mean != 0")
	}
}

func TestTimelineRendering(t *testing.T) {
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		var hs []*cell.SPEHandle
		for i := 0; i < 2; i++ {
			hs = append(hs, h.Run(i, "tl", func(spu cell.SPU) uint32 {
				spu.Compute(10000)
				spu.Get(0, 0, 16*1024, 0)
				spu.WaitTagAll(1)
				return 0
			}))
		}
		for _, hd := range hs {
			h.Wait(hd)
		}
	})
	txt := Timeline(tr, 60)
	if !strings.Contains(txt, "SPE0") || !strings.Contains(txt, "SPE1") {
		t.Fatalf("timeline missing lanes:\n%s", txt)
	}
	if !strings.Contains(txt, "#") {
		t.Fatalf("timeline has no compute glyphs:\n%s", txt)
	}
	if !strings.Contains(txt, "legend") {
		t.Fatal("timeline missing legend")
	}
	svg := SVGTimeline(tr, 400)
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Fatal("SVG not well-formed")
	}
	if !strings.Contains(svg, stateColors[StateCompute]) {
		t.Fatal("SVG missing compute rects")
	}
}

func TestTimelineEmptyTrace(t *testing.T) {
	tr := &Trace{}
	if s := Timeline(tr, 40); !strings.Contains(s, "empty") {
		t.Fatalf("empty timeline = %q", s)
	}
}

func TestCSVExport(t *testing.T) {
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		h.Wait(h.Run(0, "csv", func(spu cell.SPU) uint32 {
			spu.Get(0, 0, 128, 3)
			spu.WaitTagAll(1 << 3)
			return 0
		}))
	})
	var buf bytes.Buffer
	if err := WriteCSV(tr, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != tr.NumEvents()+1 {
		t.Fatalf("csv lines = %d, events = %d", len(lines), tr.NumEvents())
	}
	if !strings.Contains(out, "SPE_MFC_GET") || !strings.Contains(out, "tag=3") {
		t.Fatalf("csv content:\n%s", out)
	}
}

func TestJSONExportAndReport(t *testing.T) {
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		h.Wait(h.Run(0, "js", func(spu cell.SPU) uint32 {
			spu.Compute(100)
			return 0
		}))
	})
	Validate(tr)
	s := Summarize(tr)
	var buf bytes.Buffer
	if err := WriteJSON(tr, s, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"workload"`, `"runs"`, `"utilization"`, `"eventCounts"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("json missing %s:\n%s", want, buf.String())
		}
	}
	var rep bytes.Buffer
	Report(tr, s, &rep)
	for _, want := range []string{"workload:", "run", "top events"} {
		if !strings.Contains(rep.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, rep.String())
		}
	}
}

func TestStateString(t *testing.T) {
	if StateCompute.String() != "compute" || StateStallDMA.String() != "dma-wait" {
		t.Fatal("state names wrong")
	}
	if !strings.Contains(State(99).String(), "99") {
		t.Fatal("unknown state string")
	}
}

func TestFlushIntervalsAppearUnderTinyBuffer(t *testing.T) {
	cfg := core.DefaultTraceConfig()
	cfg.SPEBufferSize = 512
	cfg.DoubleBuffered = false
	tr := simTrace(t, cfg, func(h cell.Host) {
		h.Wait(h.Run(0, "fl", func(spu cell.SPU) uint32 {
			for i := 0; i < 100; i++ {
				spu.Get(0, 0, 64, 0)
				spu.WaitTagAll(1)
			}
			return 0
		}))
	})
	s := Summarize(tr)
	if s.FlushTicks == 0 {
		t.Fatal("no flush time despite tiny trace buffer")
	}
	if s.Runs[0].StateTicks[StateFlush] == 0 {
		t.Fatal("run summary missing flush state")
	}
}
