package analyzer

import (
	"fmt"
	"io"

	"github.com/celltrace/pdt/internal/core/event"
)

// Compensation estimates what one SPE run would have measured without
// tracing, by subtracting the known instrumentation costs the trace
// itself documents: the per-record cost (recorded in the metadata) times
// the record count, plus the observed buffer-flush time. This is the
// analysis-side answer to the paper's discussion of tracing's impact on
// the measurements: the perturbation is bounded and largely correctable
// because the tracer accounts for itself.
type Compensation struct {
	Run     int
	Core    uint8
	Records int // SPE records of this run (flush records excluded)
	// InstrTicks is records x per-record cost, in timebase ticks.
	InstrTicks uint64
	// FlushTicks is the observed trace-flush time.
	FlushTicks uint64
	// Wall and CorrectedWall are the measured and compensated run times.
	Wall, CorrectedWall uint64
	// Compute and CorrectedCompute are measured and compensated compute.
	Compute, CorrectedCompute uint64
}

// OverheadPct returns the estimated tracing overhead of the run.
func (c *Compensation) OverheadPct() float64 {
	if c.CorrectedWall == 0 {
		return 0
	}
	return 100 * float64(c.Wall-c.CorrectedWall) / float64(c.CorrectedWall)
}

// Compensate computes per-run compensation from the trace's own metadata.
// Cross-SPE coupling (a stall shortened or lengthened by someone else's
// instrumentation) is not correctable from a single trace; the paper's
// negative-overhead pipeline case is exactly that residual.
func Compensate(tr *Trace) []Compensation {
	cpt := tr.CyclesPerTick()
	perRecTicks := float64(tr.Meta.SPEEventCost) / float64(cpt)
	s := Summarize(tr)
	out := make([]Compensation, 0, len(s.Runs))
	for i := range s.Runs {
		r := &s.Runs[i]
		c := Compensation{
			Run: r.Run, Core: r.Core,
			Wall:       r.Wall(),
			Compute:    r.StateTicks[StateCompute],
			FlushTicks: r.StateTicks[StateFlush],
		}
		for _, i := range tr.RunSeqs(r.Run) {
			if tr.col.ID[i] != event.SPETraceFlush {
				c.Records++
			}
		}
		c.InstrTicks = uint64(float64(c.Records) * perRecTicks)
		sub := c.InstrTicks + c.FlushTicks
		if sub < c.Wall {
			c.CorrectedWall = c.Wall - sub
		}
		if c.InstrTicks < c.Compute {
			// Instrumentation cycles are charged inside what the
			// interval builder classifies as compute.
			c.CorrectedCompute = c.Compute - c.InstrTicks
		}
		out = append(out, c)
	}
	return out
}

// WriteCompensation renders the compensation report.
func WriteCompensation(tr *Trace, w io.Writer) {
	if tr.Meta.SPEEventCost == 0 {
		fmt.Fprintln(w, "trace metadata carries no instrumentation costs; cannot compensate")
		return
	}
	fmt.Fprintf(w, "per-record cost: %d cycles (SPE), %d (PPE)\n\n",
		tr.Meta.SPEEventCost, tr.Meta.PPEEventCost)
	fmt.Fprintf(w, "%-4s %-4s %8s %10s %10s %12s %12s %9s\n",
		"run", "core", "records", "instr", "flush", "wall", "corrected", "overhead")
	for _, c := range Compensate(tr) {
		fmt.Fprintf(w, "%-4d %-4d %8d %10d %10d %12d %12d %8.2f%%\n",
			c.Run, c.Core, c.Records, c.InstrTicks, c.FlushTicks,
			c.Wall, c.CorrectedWall, c.OverheadPct())
	}
}
