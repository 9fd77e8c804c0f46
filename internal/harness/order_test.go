package harness

import (
	"testing"

	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/workloads"
)

// TestSPEChunksInStampOrder: the tracer writes every SPE record in stamp
// order (docs/FORMAT.md, "Records"), the TRACE_FLUSH record a full buffer
// forces included, so each SPE chunk it writes is non-decreasing in time.
// Every workload, double- and single-buffered, at a cheap and the default
// instrumentation cost: the cost decides how far a flush record's stamp
// lands after the record that forced it.
func TestSPEChunksInStampOrder(t *testing.T) {
	for _, w := range workloads.Names() {
		for _, double := range []bool{true, false} {
			for _, cost := range []uint64{10, 200} {
				cfg := core.DefaultTraceConfig()
				cfg.DoubleBuffered = double
				cfg.SPEEventCost = cost
				res, err := Run(Spec{Workload: w, Trace: &cfg})
				if err != nil {
					t.Fatalf("%s: %v", w, err)
				}
				f, err := traceio.Parse(res.TraceBytes)
				if err != nil {
					t.Fatalf("%s: %v", w, err)
				}
				backwards, spe := 0, 0
				for _, c := range f.Chunks {
					if c.Core >= event.CorePPEBase {
						continue
					}
					spe++
					recs, _, err := traceio.DecodeChunk(c)
					if err != nil {
						t.Fatalf("%s: %v", w, err)
					}
					for i := 1; i < len(recs); i++ {
						if recs[i].Time < recs[i-1].Time {
							backwards++
						}
					}
				}
				if spe == 0 {
					t.Fatalf("%s: no SPE chunk", w)
				}
				if backwards > 0 {
					t.Errorf("%s double=%v cost=%d: %d SPE record(s) stamped before their predecessor",
						w, double, cost, backwards)
				}
			}
		}
	}
}
