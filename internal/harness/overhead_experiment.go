package harness

import (
	"fmt"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/diff"
	"github.com/celltrace/pdt/internal/core"
)

// e14Workloads is the benchmark set for the differencing experiment:
// three workloads with distinct communication profiles (DMA-bound tiles,
// dynamically balanced compute, mailbox-driven stages).
func e14Workloads(quick bool) []workload {
	if quick {
		return []workload{
			{"matmul", map[string]string{"n": "128", "t": "32"}},
			{"julia", map[string]string{"w": "128", "h": "64", "maxiter": "64", "mode": "dynamic"}},
			{"pipeline", map[string]string{"blocks": "16", "blockbytes": "1024"}},
		}
	}
	return []workload{
		{"matmul", map[string]string{"n": "256", "t": "64"}},
		{"julia", map[string]string{"w": "512", "h": "256", "maxiter": "200", "mode": "dynamic"}},
		{"pipeline", map[string]string{"blocks": "48", "blockbytes": "4096"}},
	}
}

// e14BufferSize keeps the SPE trace buffer small enough that higher
// event-group configurations overflow it. Combined with single
// buffering (each flush stalls on its own DMA), flush time becomes
// visible in the trace and the attribution's flush row is exercised,
// not just the per-record estimate.
const e14BufferSize = 2048

// runE14 measures PDT's own overhead by differencing: each workload runs
// once per cumulative event-group configuration, and every richer run is
// diffed against the lifecycle-only baseline with the diff engine. The
// attribution column splits the wall-clock delta into trace-buffer
// flushes, per-record instrumentation cost, and an unattributed residual
// (perturbation the two models don't explain); critpath shows how much of
// the delta lands on the critical path.
func runE14(quick bool) ([]*Table, error) {
	t := newTable("workload\tconfig\trecords Δ\twall Δ\tflush attr\trecord attr\tticks/record\tresidual\tcritpath Δ",
		"%s\t%s\t%+d\t%+d\t%+d\t%+d\t%s\t%+d\t%+d")
	for _, wl := range e14Workloads(quick) {
		var base *analyzer.Trace
		for i, lvl := range traceLevels() {
			res, err := traced(wl, func(c *core.Config) {
				c.Groups = lvl.Groups
				c.SPEBufferSize = e14BufferSize
				c.DoubleBuffered = false
			})
			if err != nil {
				return nil, err
			}
			tr := res.Trace
			if i == 0 {
				base = tr
				t.addf("%s\t%s\t(baseline: %d records, %d ticks)\t\t\t\t\t\t",
					wl.name, lvl.Name, tr.NumEvents(), wallTicks(tr))
				continue
			}
			rep, err := diff.Diff(base, tr, diff.Options{})
			if err != nil {
				return nil, err
			}
			o := rep.Overhead
			perRec := ""
			if o.RecordDelta != 0 && o.RecordAttributed != 0 {
				perRec = fmt.Sprintf("%.2f", o.PerRecordTicks)
			}
			t.add(wl.name, lvl.Name, rep.RecordDelta(), o.WallDeltaTicks,
				o.FlushAttributed, o.RecordAttributed, perRec, o.ResidualTicks,
				rep.CritPath.Delta())
		}
	}
	return []*Table{t}, nil
}

// wallTicks is the span of one trace in ticks.
func wallTicks(tr *analyzer.Trace) uint64 {
	first, last := tr.Span()
	return last - first
}
