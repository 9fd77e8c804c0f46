package integration

import (
	"fmt"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer/cycles"
	"github.com/celltrace/pdt/internal/analyzer/diff"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/faults"
	"github.com/celltrace/pdt/internal/harness"
)

// TestCycleIterationCounts pins the detector's end-to-end contract on
// the iterative workloads: the recovered cycle count equals the
// configured iteration count — per run where every SPE executes the
// whole loop (pipeline stages, stencil sweeps), in total where the loop
// is distributed across the farm (taskfarm tasks, stream chunks).
func TestCycleIterationCounts(t *testing.T) {
	matrix := []struct {
		name   string
		params map[string]string
		perRun int // expected cycles in every detected run (0 = don't check)
		total  int // expected cycles across all runs (0 = don't check)
	}{
		{"pipeline", map[string]string{"blocks": "8", "blockbytes": "1024"}, 8, 0},
		{"stencil", map[string]string{"w": "64", "h": "16", "iters": "4"}, 4, 0},
		{"taskfarm", map[string]string{"tasks": "16", "blockbytes": "1024"}, 0, 16},
		{"stream", map[string]string{"elements": "131072"}, 0, 32},
	}
	for _, wl := range matrix {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			cfg := core.DefaultTraceConfig()
			res, err := harness.Run(harness.Spec{Workload: wl.name, Params: wl.params, Trace: &cfg})
			if err != nil {
				t.Fatal(err)
			}
			rep := cycles.Detect(res.Trace, cycles.Options{})
			if rep.Detected() == 0 {
				t.Fatal("no run detected a cycle structure")
			}
			for i := range rep.Runs {
				r := &rep.Runs[i]
				if !r.Detected {
					t.Errorf("SPE%d run %d: not detected", r.Core, r.Run)
					continue
				}
				if wl.perRun > 0 && len(r.Cycles) != wl.perRun {
					t.Errorf("SPE%d run %d: %d cycles, want %d", r.Core, r.Run, len(r.Cycles), wl.perRun)
				}
			}
			if wl.total > 0 && rep.TotalCycles != wl.total {
				t.Errorf("total cycles = %d, want %d", rep.TotalCycles, wl.total)
			}
		})
	}
}

// stallExtraCycles is the injected flush stall: 200k machine cycles
// (5000 timebase ticks at div 40) — far above the diff's flag floor,
// well below a pipeline iteration, so exactly one cycle elongates
// without drowning detection.
const stallExtraCycles = 200_000

// TestAlignDiffLocalizesStalledCycle is the regression-localization
// story end to end: perturb one iteration of a pipeline run with a
// stalled flush DMA (single-buffered, so the SPE eats the stall
// inline), align-diff the perturbed trace against the clean baseline,
// and require the per-cycle layer to finger exactly the cycle the
// stall landed in — the one containing the first flush issued at or
// after the fault's threshold.
func TestAlignDiffLocalizesStalledCycle(t *testing.T) {
	params := map[string]string{"blocks": "8", "blockbytes": "4096"}
	spec := func(plan *faults.Plan) harness.Spec {
		cfg := core.DefaultTraceConfig()
		// A small single buffer forces a flush every few records, so
		// every cycle of every run contains flushes for the fault to hit.
		cfg.SPEBufferSize = 512
		cfg.DoubleBuffered = false
		return harness.Spec{Workload: "pipeline", Params: params, Trace: &cfg, Faults: plan}
	}

	base, err := harness.Run(spec(nil))
	if err != nil {
		t.Fatal(err)
	}
	baseRep := cycles.Detect(base.Trace, cycles.Options{})

	// Target the middle cycle of the first detected run with enough
	// cycles that boundaries don't interfere.
	var target *cycles.Run
	for i := range baseRep.Runs {
		if r := &baseRep.Runs[i]; r.Detected && len(r.Cycles) >= 4 {
			target = r
			break
		}
	}
	if target == nil {
		t.Fatal("baseline has no detected run with >= 4 cycles")
	}
	mid := target.Cycles[len(target.Cycles)/2]
	div := base.Trace.Header.TimebaseDiv
	stallAt := mid.Start * uint64(div)

	// The cycle that actually elongates is the one holding the first
	// flush at or after the threshold (the stall may land past mid's
	// start if mid's first flush comes later).
	wantIdx := -1
	s := base.Trace.Columns()
	for i, id := range s.ID {
		g := s.Global[i]
		if s.Core[i] != target.Core || id != event.SPETraceFlush || g < mid.Start {
			continue
		}
		for ci := range target.Cycles {
			c := &target.Cycles[ci]
			if g >= c.Start && g <= c.End {
				wantIdx = c.Index
			}
		}
		break
	}
	if wantIdx < 0 {
		t.Fatalf("no flush of SPE%d inside a cycle at or after tick %d", target.Core, mid.Start)
	}

	plan, err := faults.Parse(fmt.Sprintf("stall:%d:%d:%d:1", target.Core, stallAt, stallExtraCycles))
	if err != nil {
		t.Fatal(err)
	}
	pert, err := harness.Run(spec(plan))
	if err != nil {
		t.Fatal(err)
	}
	if pert.Crashed || pert.Salvage != nil {
		t.Fatal("a stalled flush must not damage the run")
	}

	rep, err := diff.Diff(base.Trace, pert.Trace, diff.Options{Mode: diff.ModeAlign})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles == nil {
		t.Fatal("align diff carries no cycle layer")
	}
	var rd *diff.CycleRunDelta
	for i := range rep.Cycles.Runs {
		if r := &rep.Cycles.Runs[i]; r.Core == target.Core && r.Run == target.Run {
			rd = r
			break
		}
	}
	if rd == nil {
		t.Fatalf("align diff has no delta for SPE%d run %d", target.Core, target.Run)
	}
	if !rd.DetectedA || !rd.DetectedB {
		t.Fatalf("detection lost under the fault: A=%v B=%v", rd.DetectedA, rd.DetectedB)
	}

	// The regression must localize through the diff's own shift
	// localizer: the timeline jump enters at the stalled cycle (or the
	// one after it — detection snaps the cut to the nearest iteration
	// boundary, so a stall between two events can land on either side),
	// and its magnitude is on the order of the injected stall.
	if rd.ShiftAt < 0 {
		t.Fatal("align diff localized no timeline shift for the stalled run")
	}
	sp := &rd.Pairs[rd.ShiftAt]
	if sp.IndexA != wantIdx && sp.IndexA != wantIdx+1 {
		t.Errorf("shift enters at cycle %d, want the stalled cycle %d (or %d)",
			sp.IndexA, wantIdx, wantIdx+1)
	}
	stallTicks := int64(stallExtraCycles / uint64(div))
	if rd.ShiftTicks < stallTicks/2 {
		t.Errorf("localized shift is %d ticks, want >= %d (half the injected stall)",
			rd.ShiftTicks, stallTicks/2)
	}
	// And only localize: every cycle's own duration stays well under the
	// injected stall — the delay displaced later iterations without
	// smearing into their per-cycle metrics.
	for i := range rd.Pairs {
		if d := rd.Pairs[i].WallDelta(); d > stallTicks/2 || d < -stallTicks/2 {
			t.Errorf("cycle pair (%d,%d) wall moved %d ticks — regression not localized",
				rd.Pairs[i].IndexA, rd.Pairs[i].IndexB, d)
		}
	}
	// No other run may localize a comparable shift: the fault hit one
	// SPE's flush path, not the whole machine.
	for i := range rep.Cycles.Runs {
		r := &rep.Cycles.Runs[i]
		if r == rd || r.ShiftAt < 0 {
			continue
		}
		if r.ShiftTicks >= stallTicks/2 || r.ShiftTicks <= -stallTicks/2 {
			t.Logf("note: SPE%d run %d also shifted %d ticks (downstream of the stalled stage)",
				r.Core, r.Run, r.ShiftTicks)
		}
	}
}
