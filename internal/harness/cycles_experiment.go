package harness

import (
	"fmt"
	"io"

	"github.com/celltrace/pdt/internal/analyzer/cycles"
	"github.com/celltrace/pdt/internal/core"
)

// e15Workload names one iterative workload and its size.
type e15Workload struct {
	Name   string
	Params map[string]string
}

// e15Workloads are the iterative workloads whose steady-state loop the
// cycle detector must recover, with sizes per mode.
func e15Workloads(quick bool) []e15Workload {
	if quick {
		return []e15Workload{
			{"pipeline", map[string]string{"blocks": "8", "blockbytes": "1024"}},
			{"stencil", map[string]string{"w": "64", "h": "16", "iters": "4"}},
			{"taskfarm", map[string]string{"tasks": "16", "blockbytes": "1024"}},
			{"stream", map[string]string{"elements": "131072"}},
		}
	}
	return []e15Workload{
		{"pipeline", map[string]string{"blocks": "32", "blockbytes": "4096"}},
		{"stencil", map[string]string{"w": "128", "h": "64", "iters": "8"}},
		{"taskfarm", map[string]string{"tasks": "64", "blockbytes": "4096"}},
		{"stream", map[string]string{"elements": "524288"}},
	}
}

// runE15 runs each iterative workload fully traced, detects its per-run
// cycle structure, and tabulates per-cycle variance: how regular the
// steady state is (wall-time CV), where time goes inside one iteration
// (busy/stall/DMA-wait shares of the mean cycle), and how much of the
// run the warmup and drain phases eat. A run the detector rejects prints
// as "-" — for these workloads that is a finding, not an expectation.
func runE15(w io.Writer, quick bool) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "workload\tcore\trun\tcycles\twall avg\twall CV%\tbusy%\tstall%\tdma-wait%\tsteady%")
	for _, wl := range e15Workloads(quick) {
		cfg := core.DefaultTraceConfig()
		res, err := Run(Spec{Workload: wl.Name, Params: wl.Params, Trace: &cfg})
		if err != nil {
			return err
		}
		rep := cycles.Detect(res.Trace, cycles.Options{})
		for i := range rep.Runs {
			r := &rep.Runs[i]
			if !r.Detected {
				fmt.Fprintf(tw, "%s\tSPE%d\t%d\t-\t\t\t\t\t\t\n", wl.Name, r.Core, r.Run)
				continue
			}
			cv := 0.0
			if r.Wall.Avg > 0 {
				cv = r.Wall.Stddev / r.Wall.Avg * 100
			}
			share := func(s cycles.Stats) float64 {
				if r.Wall.Avg == 0 {
					return 0
				}
				return s.Avg / r.Wall.Avg * 100
			}
			wall := r.End - r.Start
			steady := 0.0
			if wall > 0 {
				steady = float64(r.Phases.SteadyTicks) / float64(wall) * 100
			}
			fmt.Fprintf(tw, "%s\tSPE%d\t%d\t%d\t%.0f\t%.2f\t%.1f\t%.1f\t%.1f\t%.1f\n",
				wl.Name, r.Core, r.Run, len(r.Cycles), r.Wall.Avg, cv,
				share(r.Busy), share(r.Stall), share(r.DMAWait), steady)
		}
	}
	return tw.Flush()
}
