package diff

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/celltrace/pdt/internal/core/event"
)

// signed formats a delta with an explicit sign so zero reads as "+0"
// and the direction of every row is unambiguous.
func signed(v int64) string { return fmt.Sprintf("%+d", v) }

// Write renders the human-readable diff report. The output is
// byte-stable for a given report (all rows are in deterministic order,
// floats print at fixed precision), so the pdt-ta golden tests can pin
// it.
func (r *Report) Write(w io.Writer) {
	fmt.Fprintf(w, "trace diff: workload %s (deltas are B - A)\n", r.Workload)
	fmt.Fprintf(w, "records: %d -> %d (%s)\n", r.RecordsA, r.RecordsB, signed(r.RecordDelta()))
	fmt.Fprintf(w, "wall:    %d -> %d ticks (%s)\n", r.WallA, r.WallB, signed(r.WallDelta()))
	fmt.Fprintf(w, "flush:   %d -> %d ticks (%s)\n", r.FlushA, r.FlushB, signed(int64(r.FlushB)-int64(r.FlushA)))
	if r.ConfidenceA < 1 || r.ConfidenceB < 1 {
		fmt.Fprintf(w, "WARNING: degraded input — confidence A %.1f%%, B %.1f%%; deltas may understate activity\n",
			100*r.ConfidenceA, 100*r.ConfidenceB)
	}

	fmt.Fprintf(w, "\nper-core deltas (ticks; * passes gate: >=%d ticks and >=%.1f%% of the larger side):\n",
		gateTicks, 100*gateRel)
	fmt.Fprintf(w, "%-7s %9s %9s %9s %9s %9s %9s %9s %12s\n",
		"core", "recs-A", "recs-B", "wall",
		"busy", "stall", "flush", "gap", "dma-mean")
	for i := range r.Cores {
		c := &r.Cores[i]
		mark := " "
		if c.Flagged {
			mark = "*"
		}
		dmaMark := " "
		if c.DMAFlagged {
			dmaMark = "*"
		}
		fmt.Fprintf(w, "%-6s%s %9d %9d %9s %9s %9s %9s %9s %11.1f%s\n",
			event.CoreName(c.Core), mark, c.A.Records, c.B.Records,
			signed(int64(c.B.WallTicks)-int64(c.A.WallTicks)),
			signed(int64(c.B.BusyTicks)-int64(c.A.BusyTicks)),
			signed(int64(c.B.StallTicks)-int64(c.A.StallTicks)),
			signed(int64(c.B.FlushTicks)-int64(c.A.FlushTicks)),
			signed(int64(c.B.GapTicks)-int64(c.A.GapTicks)),
			c.B.DMAWait.Mean()-c.A.DMAWait.Mean(), dmaMark)
	}

	fmt.Fprintf(w, "\nevent-group deltas:\n")
	fmt.Fprintf(w, "%-11s %9s %9s %9s\n", "group", "count-A", "count-B", "delta")
	for i := range r.Groups {
		g := &r.Groups[i]
		mark := " "
		if g.Flagged {
			mark = "*"
		}
		fmt.Fprintf(w, "%-10s%s %9d %9d %9s\n", g.Group, mark, g.CountA, g.CountB, signed(g.Delta()))
	}

	o := &r.Overhead
	fmt.Fprintf(w, "\noverhead attribution (wall delta %s ticks):\n", signed(o.WallDeltaTicks))
	fmt.Fprintf(w, "  %-14s %12s   (measured flush delta %s)\n",
		"trace-flush", signed(o.FlushAttributed), signed(o.FlushDeltaTicks))
	if o.RecordDelta != 0 && o.RecordAttributed != 0 {
		fmt.Fprintf(w, "  %-14s %12s   (%s records, ~%.2f ticks/record)\n",
			"record-cost", signed(o.RecordAttributed), signed(o.RecordDelta), o.PerRecordTicks)
	} else {
		fmt.Fprintf(w, "  %-14s %12s   (%s records)\n",
			"record-cost", signed(o.RecordAttributed), signed(o.RecordDelta))
	}
	fmt.Fprintf(w, "  %-14s %12s\n", "unattributed", signed(o.ResidualTicks))

	cp := &r.CritPath
	fmt.Fprintf(w, "\ncritical path: %d -> %d ticks (%s)\n", cp.TotalA, cp.TotalB, signed(cp.Delta()))
	fmt.Fprintf(w, "%-7s %12s %12s %9s\n", "core", "A-ticks", "B-ticks", "delta")
	for i := range cp.Cores {
		cc := &cp.Cores[i]
		fmt.Fprintf(w, "%-7s %12d %12d %9s\n",
			event.CoreName(cc.Core), cc.A, cc.B, signed(int64(cc.B)-int64(cc.A)))
	}

	if r.Cycles != nil {
		r.Cycles.write(w)
	}
}

// jsonCoreSide mirrors CoreSide with histogram summarised.
type jsonCoreSide struct {
	Records     int     `json:"records"`
	WallTicks   uint64  `json:"wallTicks"`
	BusyTicks   uint64  `json:"busyTicks"`
	StallTicks  uint64  `json:"stallTicks"`
	FlushTicks  uint64  `json:"flushTicks"`
	GapTicks    uint64  `json:"gapTicks"`
	DMAWaits    uint64  `json:"dmaWaits"`
	DMAMeanWait float64 `json:"dmaMeanWaitTicks"`
	DMAMaxWait  uint64  `json:"dmaMaxWaitTicks"`
}

type jsonCoreDelta struct {
	Core       string       `json:"core"`
	A          jsonCoreSide `json:"a"`
	B          jsonCoreSide `json:"b"`
	Flagged    bool         `json:"flagged"`
	DMAFlagged bool         `json:"dmaFlagged"`
}

type jsonGroupDelta struct {
	Group   string `json:"group"`
	CountA  int    `json:"countA"`
	CountB  int    `json:"countB"`
	Delta   int64  `json:"delta"`
	Flagged bool   `json:"flagged"`
}

type jsonAttribution struct {
	WallDeltaTicks   int64   `json:"wallDeltaTicks"`
	FlushDeltaTicks  int64   `json:"flushDeltaTicks"`
	FlushAttributed  int64   `json:"flushAttributedTicks"`
	RecordDelta      int64   `json:"recordDelta"`
	RecordAttributed int64   `json:"recordAttributedTicks"`
	PerRecordTicks   float64 `json:"perRecordTicks"`
	ResidualTicks    int64   `json:"residualTicks"`
}

type jsonCritCore struct {
	Core  string `json:"core"`
	A     uint64 `json:"aTicks"`
	B     uint64 `json:"bTicks"`
	Delta int64  `json:"delta"`
}

type jsonCycleMetrics struct {
	Start   uint64 `json:"start"`
	Events  int    `json:"events"`
	Wall    uint64 `json:"wall"`
	Busy    uint64 `json:"busy"`
	Stall   uint64 `json:"stall"`
	DMAWait uint64 `json:"dmaWait"`
}

type jsonCyclePair struct {
	IndexA    int              `json:"indexA"`
	IndexB    int              `json:"indexB"`
	Sig       uint64           `json:"sig"`
	A         jsonCycleMetrics `json:"a"`
	B         jsonCycleMetrics `json:"b"`
	WallDelta int64            `json:"wallDelta"`
	Flagged   bool             `json:"flagged"`
}

type jsonCycleEdit struct {
	Index int              `json:"index"`
	Sig   uint64           `json:"sig"`
	M     jsonCycleMetrics `json:"metrics"`
}

type jsonCycleRun struct {
	Core      string          `json:"core"`
	Run       int             `json:"run"`
	DetectedA bool            `json:"detectedA"`
	DetectedB bool            `json:"detectedB"`
	CyclesA   int             `json:"cyclesA"`
	CyclesB   int             `json:"cyclesB"`
	Approx    bool            `json:"approx,omitempty"`
	Pairs     []jsonCyclePair `json:"pairs"`
	Deleted   []jsonCycleEdit `json:"deleted,omitempty"`
	Inserted  []jsonCycleEdit `json:"inserted,omitempty"`
	// shiftAt/shiftTicks appear only when a gated timeline shift was
	// localized (align mode).
	ShiftAt    *int  `json:"shiftAt,omitempty"`
	ShiftTicks int64 `json:"shiftTicks,omitempty"`
}

type jsonCycleDiff struct {
	Mode     string         `json:"mode"`
	Matched  int            `json:"matched"`
	Inserted int            `json:"inserted"`
	Deleted  int            `json:"deleted"`
	Runs     []jsonCycleRun `json:"runs"`
}

type jsonDiff struct {
	Workload    string           `json:"workload"`
	RecordsA    int              `json:"recordsA"`
	RecordsB    int              `json:"recordsB"`
	RecordDelta int64            `json:"recordDelta"`
	WallA       uint64           `json:"wallTicksA"`
	WallB       uint64           `json:"wallTicksB"`
	WallDelta   int64            `json:"wallDelta"`
	FlushA      uint64           `json:"flushTicksA"`
	FlushB      uint64           `json:"flushTicksB"`
	ConfidenceA float64          `json:"confidenceA,omitempty"`
	ConfidenceB float64          `json:"confidenceB,omitempty"`
	Cores       []jsonCoreDelta  `json:"cores"`
	Groups      []jsonGroupDelta `json:"groups"`
	Overhead    jsonAttribution  `json:"overhead"`
	CritPathA   uint64           `json:"critPathTicksA"`
	CritPathB   uint64           `json:"critPathTicksB"`
	CritDelta   int64            `json:"critPathDelta"`
	CritCores   []jsonCritCore   `json:"critPathCores"`
	Cycles      *jsonCycleDiff   `json:"cycles,omitempty"`
}

// WriteJSON renders the diff report as indented JSON (the `-json` CLI
// flag and the pdt-tad /v1/diff response body).
func (r *Report) WriteJSON(w io.Writer) error {
	toSide := func(s CoreSide) jsonCoreSide {
		return jsonCoreSide{
			Records: s.Records, WallTicks: s.WallTicks,
			BusyTicks: s.BusyTicks, StallTicks: s.StallTicks,
			FlushTicks: s.FlushTicks, GapTicks: s.GapTicks,
			DMAWaits: s.DMAWait.Count, DMAMeanWait: s.DMAWait.Mean(), DMAMaxWait: s.DMAWait.Max,
		}
	}
	out := jsonDiff{
		Workload: r.Workload,
		RecordsA: r.RecordsA, RecordsB: r.RecordsB, RecordDelta: r.RecordDelta(),
		WallA: r.WallA, WallB: r.WallB, WallDelta: r.WallDelta(),
		FlushA: r.FlushA, FlushB: r.FlushB,
		Cores:  []jsonCoreDelta{},
		Groups: []jsonGroupDelta{},
		Overhead: jsonAttribution{
			WallDeltaTicks:  r.Overhead.WallDeltaTicks,
			FlushDeltaTicks: r.Overhead.FlushDeltaTicks, FlushAttributed: r.Overhead.FlushAttributed,
			RecordDelta: r.Overhead.RecordDelta, RecordAttributed: r.Overhead.RecordAttributed,
			PerRecordTicks: r.Overhead.PerRecordTicks, ResidualTicks: r.Overhead.ResidualTicks,
		},
		CritPathA: r.CritPath.TotalA, CritPathB: r.CritPath.TotalB, CritDelta: r.CritPath.Delta(),
		CritCores: []jsonCritCore{},
	}
	if r.ConfidenceA < 1 || r.ConfidenceB < 1 {
		out.ConfidenceA, out.ConfidenceB = r.ConfidenceA, r.ConfidenceB
	}
	for i := range r.Cores {
		c := &r.Cores[i]
		out.Cores = append(out.Cores, jsonCoreDelta{
			Core: event.CoreName(c.Core), A: toSide(c.A), B: toSide(c.B),
			Flagged: c.Flagged, DMAFlagged: c.DMAFlagged,
		})
	}
	for i := range r.Groups {
		g := &r.Groups[i]
		out.Groups = append(out.Groups, jsonGroupDelta{
			Group: g.Group.String(), CountA: g.CountA, CountB: g.CountB,
			Delta: g.Delta(), Flagged: g.Flagged,
		})
	}
	for i := range r.CritPath.Cores {
		cc := &r.CritPath.Cores[i]
		out.CritCores = append(out.CritCores, jsonCritCore{
			Core: event.CoreName(cc.Core), A: cc.A, B: cc.B, Delta: int64(cc.B) - int64(cc.A),
		})
	}
	if r.Cycles != nil {
		toM := func(m CycleMetrics) jsonCycleMetrics {
			return jsonCycleMetrics{Start: m.Start, Events: m.Events, Wall: m.Wall,
				Busy: m.Busy, Stall: m.Stall, DMAWait: m.DMAWait}
		}
		jc := &jsonCycleDiff{
			Mode: r.Cycles.Mode, Matched: r.Cycles.Matched,
			Inserted: r.Cycles.Inserted, Deleted: r.Cycles.Deleted,
			Runs: []jsonCycleRun{},
		}
		for i := range r.Cycles.Runs {
			rr := &r.Cycles.Runs[i]
			jr := jsonCycleRun{
				Core: event.CoreName(rr.Core), Run: rr.Run,
				DetectedA: rr.DetectedA, DetectedB: rr.DetectedB,
				CyclesA: rr.CyclesA, CyclesB: rr.CyclesB, Approx: rr.Approx,
				Pairs: []jsonCyclePair{},
			}
			if rr.ShiftAt >= 0 {
				at := rr.ShiftAt
				jr.ShiftAt, jr.ShiftTicks = &at, rr.ShiftTicks
			}
			for j := range rr.Pairs {
				p := &rr.Pairs[j]
				jr.Pairs = append(jr.Pairs, jsonCyclePair{
					IndexA: p.IndexA, IndexB: p.IndexB, Sig: p.Sig,
					A: toM(p.A), B: toM(p.B), WallDelta: p.WallDelta(), Flagged: p.Flagged,
				})
			}
			for j := range rr.Deleted {
				e := &rr.Deleted[j]
				jr.Deleted = append(jr.Deleted, jsonCycleEdit{Index: e.Index, Sig: e.Sig, M: toM(e.M)})
			}
			for j := range rr.Inserted {
				e := &rr.Inserted[j]
				jr.Inserted = append(jr.Inserted, jsonCycleEdit{Index: e.Index, Sig: e.Sig, M: toM(e.M)})
			}
			jc.Runs = append(jc.Runs, jr)
		}
		out.Cycles = jc
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}
