package analyzer

import (
	"math"
	"sort"

	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// Histogram is a power-of-two bucketed histogram (bucket i counts values
// in [2^i, 2^(i+1))).
type Histogram struct {
	Buckets [40]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// Add records one value.
func (h *Histogram) Add(v uint64) {
	b := 0
	for x := v; x > 1; x >>= 1 {
		b++
	}
	if b >= len(h.Buckets) {
		b = len(h.Buckets) - 1
	}
	h.Buckets[b]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Mean returns the average recorded value.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// RunSummary aggregates one SPE program run.
type RunSummary struct {
	Run     int
	Core    uint8
	Program string
	Start   uint64 // timebase ticks
	End     uint64
	// Per-state time in timebase ticks.
	StateTicks StateTicks
	Events     int
	// Confidence is the record-survival fraction for this run's core
	// (1.0 on clean traces); low values mean the per-state breakdown
	// understates the run's real activity.
	Confidence float64
}

// Wall returns the run duration.
func (r *RunSummary) Wall() uint64 { return r.End - r.Start }

// Busy returns compute ticks.
func (r *RunSummary) Busy() uint64 { return r.StateTicks[StateCompute] }

// Utilization returns compute time / wall time.
func (r *RunSummary) Utilization() float64 {
	if r.Wall() == 0 {
		return 0
	}
	return float64(r.Busy()) / float64(r.Wall())
}

// DMASummary aggregates MFC activity for one run.
type DMASummary struct {
	Run        int
	Core       uint8
	Gets, Puts int
	Lists      int
	BytesIn    uint64 // toward local store (GET)
	BytesOut   uint64 // toward main storage (PUT)
	Waits      int
	WaitTicks  Histogram // per-wait duration in timebase ticks
	SizeBytes  Histogram // per-command transfer size
}

// MboxSummary aggregates mailbox activity for one run.
type MboxSummary struct {
	Run            int
	Core           uint8
	Reads, Writes  int
	ReadWaitTicks  Histogram
	WriteWaitTicks Histogram
}

// Summary is the full-trace report.
type Summary struct {
	Workload   string
	WallTicks  uint64 // first to last event
	Runs       []RunSummary
	DMA        []DMASummary
	Mbox       []MboxSummary
	EventCount map[event.ID]int
	TotalRecs  int
	// LoadImbalance is max(busy)/mean(busy) over SPE runs (1.0 = even).
	LoadImbalance float64
	// FlushTicks is PDT's own overhead observed in the trace.
	FlushTicks uint64
	// PPE is the host lane beside the SPE runs.
	PPE PPEStats
}

// runAcc is one run's share of the summary: its bounds, the run state
// machine summed into per-state ticks, and the DMA and mailbox scanners.
type runAcc struct {
	seen   bool
	core   uint8
	start  uint64
	end    uint64
	events int

	machine runMachine
	state   StateTicks

	dma       DMASummary
	inWait    bool
	waitStart uint64

	mbox      MboxSummary
	mboxStart uint64
	mboxKind  event.ID // the open mailbox Enter, 0 when none
}

// summaryAcc is the Summarize kernel: it folds merged segments one at a
// time and can report, at any point, the Summary of the events folded so
// far. Batch Summarize folds the whole store as one segment; StreamLoader
// folds a segment per window. Folding segments in stream order is exact
// because window cuts preserve the merged order within each run and every
// figure is a per-run state machine or an order-insensitive sum.
type summaryAcc struct {
	cpt uint64 // cycles per timebase tick (flush durations are in cycles)
	ppe ppeAcc

	events     int
	minG, maxG uint64
	known      []int    // record counts indexed by event ID, like kindOf
	perCore    [256]int // record counts, the input of the stream's confidence
	runs       []runAcc
}

// run returns the accumulator of one run, growing the table on demand
// (live streams discover runs as their anchors arrive).
func (a *summaryAcc) run(run int) *runAcc {
	for run >= len(a.runs) {
		a.runs = append(a.runs, runAcc{})
	}
	return &a.runs[run]
}

func (a *summaryAcc) fold(seg *colstore.Store) {
	n := seg.Len()
	if n == 0 {
		return
	}
	// Segments are internally ascending in Global but not ordered across
	// windows, so the span folds as min/max of segment bounds.
	first, last := seg.Global[0], seg.Global[n-1]
	if a.events == 0 || first < a.minG {
		a.minG = first
	}
	if a.events == 0 || last > a.maxG {
		a.maxG = last
	}
	a.events += n
	a.ppe.fold(seg)
	if a.known == nil {
		a.known = make([]int, event.NumIDs())
	}
	var ra *runAcc
	addState := func(state State, start, end uint64) { ra.state[state] += end - start }
	for i, id := range seg.ID {
		a.known[id]++
		a.perCore[seg.Core[i]]++
		run := seg.Run[i]
		if run < 0 {
			continue
		}
		g := seg.Global[i]
		ra = a.run(int(run))
		if !ra.seen {
			ra.seen = true
			ra.core = seg.Core[i]
			ra.start = g
			ra.machine.cursor = g
		}
		ra.end = g
		ra.events++
		ra.scan(seg, i, id, g)
		ra.machine.step(seg, i, a.cpt, addState)
	}
}

// scan advances the run's DMA and mailbox scanners by one event.
func (ra *runAcc) scan(seg *colstore.Store, i int, id event.ID, g uint64) {
	switch id {
	case event.SPEMFCGet, event.SPEMFCPut, event.SPEMFCGetList, event.SPEMFCPutList:
		size := seg.Args[seg.ArgOff[i]+2]
		ra.dma.SizeBytes.Add(size)
		switch id {
		case event.SPEMFCGet:
			ra.dma.Gets++
			ra.dma.BytesIn += size
		case event.SPEMFCPut:
			ra.dma.Puts++
			ra.dma.BytesOut += size
		case event.SPEMFCGetList:
			ra.dma.Lists++
			ra.dma.BytesIn += size
		case event.SPEMFCPutList:
			ra.dma.Lists++
			ra.dma.BytesOut += size
		}
	case event.SPEWaitTagEnter:
		ra.inWait = true
		ra.waitStart = g
	case event.SPEWaitTagExit:
		if ra.inWait {
			ra.dma.Waits++
			ra.dma.WaitTicks.Add(g - ra.waitStart)
			ra.inWait = false
		}
	case event.SPEReadInMboxEnter, event.SPEWriteOutMboxEnter, event.SPEWriteIntrMboxEnter:
		ra.mboxStart, ra.mboxKind = g, id
	case event.SPEReadInMboxExit:
		if ra.mboxKind == event.SPEReadInMboxEnter {
			ra.mbox.Reads++
			ra.mbox.ReadWaitTicks.Add(g - ra.mboxStart)
			ra.mboxKind = 0
		}
	case event.SPEWriteOutMboxExit, event.SPEWriteIntrMboxExit:
		if ra.mboxKind != 0 && ra.mboxKind != event.SPEReadInMboxEnter {
			ra.mbox.Writes++
			ra.mbox.WriteWaitTicks.Add(g - ra.mboxStart)
			ra.mboxKind = 0
		}
	}
}

// result reports the Summary of everything folded so far. Only runs with
// an anchor in meta are reported. Stalls still open are closed at the
// run's last event on a copy, as at the end of a truncated trace, so the
// live machines are not disturbed and folding can continue.
func (a *summaryAcc) result(meta *traceio.Meta, conf Confidence) *Summary {
	s := &Summary{
		Workload:   meta.Workload,
		EventCount: make(map[event.ID]int, len(a.known)),
		TotalRecs:  a.events,
		WallTicks:  a.maxG - a.minG,
		PPE:        a.ppe.stats,
	}
	for id, n := range a.known {
		if n > 0 { // a key per ID that occurred, not a zero row per table entry
			s.EventCount[event.ID(id)] = n
		}
	}
	for run := 0; run < len(meta.Anchors) && run < len(a.runs); run++ {
		ra := a.runs[run] // value copy
		if !ra.seen {
			continue
		}
		ra.machine.finish(ra.end, ra.state.add)
		s.Runs = append(s.Runs, RunSummary{
			Run: run, Core: ra.core, Program: meta.Anchors[run].Program,
			Start: ra.start, End: ra.end, StateTicks: ra.state, Events: ra.events,
			Confidence: conf.ForCore(ra.core),
		})
		s.FlushTicks += ra.state[StateFlush]
		ra.dma.Run, ra.dma.Core = run, ra.core
		s.DMA = append(s.DMA, ra.dma)
		ra.mbox.Run, ra.mbox.Core = run, ra.core
		s.Mbox = append(s.Mbox, ra.mbox)
	}

	// Load imbalance over runs (max busy / mean busy).
	if len(s.Runs) > 0 {
		var sum, max float64
		for i := range s.Runs {
			b := float64(s.Runs[i].Busy())
			sum += b
			max = math.Max(max, b)
		}
		mean := sum / float64(len(s.Runs))
		if mean > 0 {
			s.LoadImbalance = max / mean
		}
	}
	return s
}

// Summarize computes the full-trace report.
func Summarize(tr *Trace) *Summary {
	a := summaryAcc{cpt: tr.CyclesPerTick()}
	a.fold(tr.segment())
	return a.result(&tr.Meta, tr.Confidence)
}

// EffectiveConcurrency is the time-averaged number of computing SPEs:
// total compute ticks over the trace span.
func (s *Summary) EffectiveConcurrency() float64 {
	if s.WallTicks == 0 {
		return 0
	}
	return float64(s.TotalState(StateCompute)) / float64(s.WallTicks)
}

// TagStats aggregates DMA activity per MFC tag group across the trace —
// the view that shows how an application partitions its transfer streams
// (operand prefetch vs writeback vs trace flush).
type TagStats struct {
	Tag   int
	Cmds  int
	Bytes uint64
}

// tagsAcc is the TagBreakdown kernel: per-tag DMA sums.
type tagsAcc [32]TagStats

func (a *tagsAcc) fold(seg *colstore.Store) {
	for i, id := range seg.ID {
		switch id {
		case event.SPEMFCGet, event.SPEMFCPut, event.SPEMFCGetList, event.SPEMFCPutList:
			args := seg.Args[seg.ArgOff[i]:]
			tag := int(args[3] % 32)
			a[tag].Tag = tag
			a[tag].Cmds++
			a[tag].Bytes += args[2]
		}
	}
}

// result lists the tags that carried traffic, most bytes first.
func (a *tagsAcc) result() []TagStats {
	var out []TagStats
	for _, t := range a {
		if t.Cmds > 0 {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bytes > out[j].Bytes })
	return out
}

// TagBreakdown computes per-tag DMA statistics over all SPE runs.
func TagBreakdown(tr *Trace) []TagStats {
	var a tagsAcc
	a.fold(tr.segment())
	return a.result()
}

// TopEvents returns the (id, count) pairs sorted by descending count.
type EventCount struct {
	ID    event.ID
	Count int
}

// TopEvents lists event counts in descending order.
func (s *Summary) TopEvents() []EventCount {
	out := make([]EventCount, 0, len(s.EventCount))
	for id, n := range s.EventCount {
		out = append(out, EventCount{id, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// TotalState sums one state's ticks across all runs.
func (s *Summary) TotalState(st State) uint64 {
	var total uint64
	for i := range s.Runs {
		total += s.Runs[i].StateTicks[st]
	}
	return total
}
