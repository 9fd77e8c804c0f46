package harness

import "github.com/celltrace/pdt/internal/analyzer/cycles"

// e15Workloads are the iterative workloads whose steady-state loop the
// cycle detector must recover, with sizes per mode.
func e15Workloads(quick bool) []workload {
	if quick {
		return []workload{
			{"pipeline", map[string]string{"blocks": "8", "blockbytes": "1024"}},
			{"stencil", map[string]string{"w": "64", "h": "16", "iters": "4"}},
			{"taskfarm", map[string]string{"tasks": "16", "blockbytes": "1024"}},
			{"stream", map[string]string{"elements": "131072"}},
		}
	}
	return []workload{
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
func runE15(quick bool) ([]*Table, error) {
	t := newTable("workload\tcore\trun\tcycles\twall avg\twall CV%\tbusy%\tstall%\tdma-wait%\tsteady%",
		"%s\tSPE%d\t%d\t%d\t%.0f\t%.2f\t%.1f\t%.1f\t%.1f\t%.1f")
	for _, wl := range e15Workloads(quick) {
		res, err := traced(wl, nil)
		if err != nil {
			return nil, err
		}
		rep := cycles.Detect(res.Trace, cycles.Options{})
		for i := range rep.Runs {
			r := &rep.Runs[i]
			if !r.Detected {
				t.addf("%s\tSPE%d\t%d\t-\t\t\t\t\t\t", wl.name, r.Core, r.Run)
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
			t.add(wl.name, r.Core, r.Run, len(r.Cycles), r.Wall.Avg, cv,
				share(r.Busy), share(r.Stall), share(r.DMAWait), steady)
		}
	}
	return []*Table{t}, nil
}
