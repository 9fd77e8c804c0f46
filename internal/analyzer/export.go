package analyzer

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"github.com/celltrace/pdt/internal/core/event"
)

// WriteCSV exports the merged event stream as CSV:
// seq,global_tick,core,run,event,args...,str
func WriteCSV(tr *Trace, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"seq", "global_tick", "core", "run", "event", "args", "str"}); err != nil {
		return err
	}
	s := tr.segment()
	for i := 0; i < s.Len(); i++ {
		args := ""
		info, _ := event.Lookup(s.ID[i])
		for j, a := range s.EventArgs(i) {
			if j > 0 {
				args += " "
			}
			name := fmt.Sprintf("a%d", j)
			if j < len(info.Args) {
				name = info.Args[j]
			}
			args += fmt.Sprintf("%s=%d", name, a)
		}
		rec := []string{
			strconv.Itoa(i),
			strconv.FormatUint(s.Global[i], 10),
			event.CoreName(s.Core[i]),
			strconv.Itoa(int(s.Run[i])),
			s.ID[i].String(),
			args,
			s.Str(i),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonSummary is the JSON shape of a Summary report.
type jsonSummary struct {
	Workload      string         `json:"workload"`
	WallTicks     uint64         `json:"wallTicks"`
	TotalRecords  int            `json:"totalRecords"`
	LoadImbalance float64        `json:"loadImbalance"`
	FlushTicks    uint64         `json:"flushTicks"`
	Confidence    float64        `json:"confidence,omitempty"`
	Runs          []jsonRun      `json:"runs"`
	EventCounts   map[string]int `json:"eventCounts"`
	Issues        []string       `json:"issues,omitempty"`
}

type jsonRun struct {
	Run         int               `json:"run"`
	Core        uint8             `json:"core"`
	Program     string            `json:"program"`
	WallTicks   uint64            `json:"wallTicks"`
	Utilization float64           `json:"utilization"`
	States      map[string]uint64 `json:"stateTicks"`
	Events      int               `json:"events"`
	Confidence  float64           `json:"confidence,omitempty"`
}

// WriteJSON exports the summary (and any validation issues on tr) as JSON.
func WriteJSON(tr *Trace, s *Summary, w io.Writer) error {
	out := jsonSummary{
		Workload:      s.Workload,
		WallTicks:     s.WallTicks,
		TotalRecords:  s.TotalRecs,
		LoadImbalance: s.LoadImbalance,
		FlushTicks:    s.FlushTicks,
		EventCounts:   map[string]int{},
	}
	if tr.Confidence.Degraded() {
		out.Confidence = tr.Confidence.Overall
	}
	for id, n := range s.EventCount {
		out.EventCounts[id.String()] = n
	}
	for i := range s.Runs {
		r := &s.Runs[i]
		jr := jsonRun{
			Run: r.Run, Core: r.Core, Program: r.Program,
			WallTicks: r.Wall(), Utilization: r.Utilization(),
			States: map[string]uint64{}, Events: r.Events,
		}
		if r.Confidence > 0 && r.Confidence < 1 {
			jr.Confidence = r.Confidence
		}
		for _, st := range States() {
			jr.States[st.String()] = r.StateTicks[st]
		}
		out.Runs = append(out.Runs, jr)
	}
	for _, i := range tr.Issues {
		out.Issues = append(out.Issues, i.String())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

// jsonProfilePair is the JSON shape of one PairProfile row.
type jsonProfilePair struct {
	Interval   string  `json:"interval"`
	Count      int     `json:"count"`
	TotalTicks uint64  `json:"totalTicks"`
	MeanTicks  float64 `json:"meanTicks"`
	MaxTicks   uint64  `json:"maxTicks"`
	Confidence float64 `json:"confidence,omitempty"`
}

// WriteProfilePairsJSON exports a computed profile (most expensive pair
// first, like WriteProfilePairs) as JSON. Confidence appears only on
// degraded traces, mirroring the human-readable table.
func WriteProfilePairsJSON(tr *Trace, pairs []PairProfile, w io.Writer) error {
	degraded := tr.Confidence.Degraded()
	out := struct {
		Intervals []jsonProfilePair `json:"intervals"`
	}{Intervals: []jsonProfilePair{}}
	for _, p := range pairs {
		name := p.Enter.String()
		if n := len(name); n > 6 && name[n-6:] == "_ENTER" {
			name = name[:n-6]
		}
		jp := jsonProfilePair{
			Interval:   name,
			Count:      p.Count,
			TotalTicks: p.Ticks.Sum,
			MeanTicks:  p.Ticks.Mean(),
			MaxTicks:   p.Ticks.Max,
		}
		if degraded {
			jp.Confidence = p.Confidence
		}
		out.Intervals = append(out.Intervals, jp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

// jsonGap is the JSON shape of one event-free stretch.
type jsonGap struct {
	Run       int    `json:"run"`
	Core      uint8  `json:"core"`
	StartTick uint64 `json:"startTick"`
	EndTick   uint64 `json:"endTick"`
	Ticks     uint64 `json:"ticks"`
}

// WriteGapsJSON exports an already-computed gap report (threshold plus
// the gaps FindGaps returned for it) as JSON, served by pdt-tad's
// /v1/gaps endpoint.
func WriteGapsJSON(minTicks uint64, gaps []Gap, w io.Writer) error {
	out := struct {
		MinTicks uint64    `json:"minTicks"`
		Gaps     []jsonGap `json:"gaps"`
	}{MinTicks: minTicks, Gaps: []jsonGap{}}
	for _, g := range gaps {
		out.Gaps = append(out.Gaps, jsonGap{
			Run: g.Run, Core: g.Core, StartTick: g.Start, EndTick: g.End, Ticks: g.Dur(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

// The critical-path document, piece by piece: what json.Encoder with a
// two-space indent writes for {totalTicks, coreTicks, segments}.
const (
	cpHead      = "{\n  \"totalTicks\": "
	cpCoreTicks = ",\n  \"coreTicks\": {"
	cpCoreKey   = "\n    "
	cpCoreVal   = ": "
	cpSegments  = "},\n  \"segments\": ["
	cpSegCore   = "\n    {\n      \"core\": "
	cpSegRun    = ",\n      \"run\": "
	cpSegStart  = ",\n      \"startTick\": "
	cpSegEnd    = ",\n      \"endTick\": "
	cpSegTicks  = ",\n      \"ticks\": "
	cpSegVia    = ",\n      \"via\": "
	cpSegCross  = ",\n      \"cross\": "
	cpSegClose  = "\n    }"
	cpListClose = "\n  "
	cpTail      = "]\n}\n"
)

// WriteCriticalPathJSON exports an already-computed critical path as
// JSON, served by pdt-tad's /v1/critpath endpoint. The document is
// appended straight into one buffer sized up front to hold it (within a
// byte per segment) — on a large trace it is megabytes, and building it
// as structs, marshalling, re-indenting and copying it left ten times
// that in garbage per render. Handed a *bytes.Buffer, it writes into the
// buffer's own storage.
func WriteCriticalPathJSON(cp *CriticalPath, w io.Writer) error {
	var names jsonNames
	cores := make([]uint8, 0, len(cp.CoreTicks))
	for c := range cp.CoreTicks {
		cores = append(cores, c)
	}
	// encoding/json orders map keys by their unescaped text.
	slices.SortFunc(cores, func(a, b uint8) int { return strings.Compare(event.CoreName(a), event.CoreName(b)) })

	n := len(cpHead) + decLen(cp.Total) + len(cpCoreTicks) + len(cpSegments) + 2*len(cpListClose) + len(cpTail)
	for _, c := range cores {
		n += len(",") + len(cpCoreKey) + len(names.core(c)) + len(cpCoreVal) + decLen(cp.CoreTicks[c])
	}
	const segFixed = len(",") + len(cpSegCore) + len(cpSegRun) + len(cpSegStart) + len(cpSegEnd) +
		len(cpSegTicks) + len(cpSegVia) + len(cpSegCross) + len("false") + len(cpSegClose)
	for i := range cp.Segments {
		s := &cp.Segments[i]
		n += segFixed + len(names.core(s.Core)) + len(names.id(s.Via)) +
			intLen(s.Run) + decLen(s.Start) + decLen(s.End) + decLen(s.Dur())
	}

	var b []byte
	if buf, ok := w.(*bytes.Buffer); ok {
		buf.Grow(n)
		b = buf.AvailableBuffer()
	} else {
		b = make([]byte, 0, n)
	}
	b = append(b, cpHead...)
	b = strconv.AppendUint(b, cp.Total, 10)
	b = append(b, cpCoreTicks...)
	for i, c := range cores {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, cpCoreKey...)
		b = append(b, names.core(c)...)
		b = append(b, cpCoreVal...)
		b = strconv.AppendUint(b, cp.CoreTicks[c], 10)
	}
	if len(cores) > 0 {
		b = append(b, cpListClose...)
	}
	b = append(b, cpSegments...)
	for i := range cp.Segments {
		s := &cp.Segments[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, cpSegCore...)
		b = append(b, names.core(s.Core)...)
		b = append(b, cpSegRun...)
		b = strconv.AppendInt(b, int64(s.Run), 10)
		b = append(b, cpSegStart...)
		b = strconv.AppendUint(b, s.Start, 10)
		b = append(b, cpSegEnd...)
		b = strconv.AppendUint(b, s.End, 10)
		b = append(b, cpSegTicks...)
		b = strconv.AppendUint(b, s.Dur(), 10)
		b = append(b, cpSegVia...)
		b = append(b, names.id(s.Via)...)
		b = append(b, cpSegCross...)
		b = strconv.AppendBool(b, s.Cross)
		b = append(b, cpSegClose...)
	}
	if len(cp.Segments) > 0 {
		b = append(b, cpListClose...)
	}
	b = append(b, cpTail...)
	_, err := w.Write(b)
	return err
}

// jsonNames memoizes the JSON spelling of core and event names — quoted
// and escaped by encoding/json itself, HTML escaping included — so each
// distinct name is escaped once per document.
type jsonNames struct {
	cores [256][]byte
	ids   [][]byte // by event ID; registered IDs only
}

func (n *jsonNames) core(c uint8) []byte {
	if n.cores[c] == nil {
		n.cores[c], _ = json.Marshal(event.CoreName(c))
	}
	return n.cores[c]
}

func (n *jsonNames) id(id event.ID) []byte {
	if n.ids == nil {
		n.ids = make([][]byte, event.NumIDs())
	}
	if int(id) >= len(n.ids) {
		q, _ := json.Marshal(id.String())
		return q
	}
	if n.ids[id] == nil {
		n.ids[id], _ = json.Marshal(id.String())
	}
	return n.ids[id]
}

// decLen is the length of v in decimal; intLen the same for a signed v.
func decLen(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

func intLen(v int) int {
	if v < 0 {
		return 1 + decLen(uint64(-v))
	}
	return decLen(uint64(v))
}

// Report renders the human-readable summary the pdt-ta CLI prints. It
// reads nothing of tr but its metadata, confidence and issues, so the
// shell of a streamed trace renders the same report as the batch load.
func Report(tr *Trace, s *Summary, w io.Writer) {
	fmt.Fprintf(w, "workload: %s\n", s.Workload)
	fmt.Fprintf(w, "records:  %d (wall %d timebase ticks)\n", s.TotalRecs, s.WallTicks)
	if tr.Confidence.Degraded() {
		fmt.Fprintf(w, "WARNING: degraded trace — confidence %.1f%% (estimated fraction of records that survived)\n",
			100*tr.Confidence.Overall)
	}
	if s.LoadImbalance > 0 {
		fmt.Fprintf(w, "load imbalance (max/mean busy): %.3f\n", s.LoadImbalance)
	}
	if len(tr.Meta.Drops) > 0 {
		for _, d := range tr.Meta.Drops {
			fmt.Fprintf(w, "WARNING: SPE %d dropped %d records\n", d.SPE, d.Count)
		}
	}
	fmt.Fprintf(w, "\n%-4s %-4s %-14s %12s %7s %10s %10s %10s %10s %10s %10s\n",
		"run", "core", "program", "wall", "util", "dma-wait", "mbox-wait", "sig-wait", "sync-wait", "flush", "events")
	for i := range s.Runs {
		r := &s.Runs[i]
		fmt.Fprintf(w, "%-4d %-4d %-14s %12d %6.1f%% %10d %10d %10d %10d %10d %10d\n",
			r.Run, r.Core, r.Program, r.Wall(), 100*r.Utilization(),
			r.StateTicks[StateStallDMA], r.StateTicks[StateStallMbox],
			r.StateTicks[StateStallSignal], r.StateTicks[StateStallSync],
			r.StateTicks[StateFlush], r.Events)
	}
	fmt.Fprintf(w, "\nDMA per run:\n%-4s %-6s %-6s %-6s %12s %12s %10s %12s\n",
		"run", "gets", "puts", "lists", "bytesIn", "bytesOut", "waits", "meanWait")
	for i := range s.DMA {
		d := &s.DMA[i]
		fmt.Fprintf(w, "%-4d %-6d %-6d %-6d %12d %12d %10d %12.1f\n",
			d.Run, d.Gets, d.Puts, d.Lists, d.BytesIn, d.BytesOut, d.Waits, d.WaitTicks.Mean())
	}
	if ppe := &s.PPE; ppe.Records > 0 {
		fmt.Fprintf(w, "\nPPE: %d records, %d SPE waits (%d ticks blocked), %d/%d mbox reads/writes (%d ticks), %d proxy cmds (%d bytes)\n",
			ppe.Records, ppe.SPEWaits, ppe.WaitTicks, ppe.MboxReads, ppe.MboxWrites,
			ppe.MboxWaitTicks, ppe.ProxyGets+ppe.ProxyPuts, ppe.ProxyBytes)
	}
	fmt.Fprintf(w, "effective SPE concurrency: %.2f\n", s.EffectiveConcurrency())
	fmt.Fprintf(w, "\ntop events:\n")
	for i, ec := range s.TopEvents() {
		if i >= 12 {
			break
		}
		fmt.Fprintf(w, "  %-28s %10d\n", ec.ID, ec.Count)
	}
	if len(tr.Issues) > 0 {
		fmt.Fprintf(w, "\nissues:\n")
		for _, is := range tr.Issues {
			fmt.Fprintf(w, "  %s\n", is)
		}
	}
}
