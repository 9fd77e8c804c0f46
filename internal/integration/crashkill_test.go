package integration

import (
	"fmt"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/faults"
	"github.com/celltrace/pdt/internal/harness"
)

// crashSpec builds the harness spec the crash-kill matrix uses for one
// workload, with or without an injected kill.
func crashSpec(name string, params map[string]string, plan *faults.Plan) harness.Spec {
	cfg := core.DefaultTraceConfig()
	return harness.Spec{
		Workload: name,
		Params:   params,
		Trace:    &cfg,
		Faults:   plan,
	}
}

// perCoreKeys groups the trace's record keys — ID, global time and
// arguments, which identify a record for the prefix comparison — by core,
// in stream order.
func perCoreKeys(tr *analyzer.Trace) map[uint8][]string {
	out := map[uint8][]string{}
	s := tr.Columns()
	for i, id := range s.ID {
		c := s.Core[i]
		out[c] = append(out[c], fmt.Sprintf("%d@%d%v", id, s.Global[i], s.EventArgs(i)))
	}
	return out
}

// TestCrashKillMatrix kills several workloads at evenly spaced cycles and
// requires that the crash-consistent trace salvages into a Validate-clean
// prefix of the undisturbed run: every surviving record matches the
// baseline, per core, in order, with nothing reordered or invented.
func TestCrashKillMatrix(t *testing.T) {
	matrix := []struct {
		name   string
		params map[string]string
	}{
		{"matmul", map[string]string{"n": "128", "t": "32"}},
		{"pipeline", map[string]string{"blocks": "16"}},
		{"fft", map[string]string{"n": "256", "batches": "8"}},
	}
	const kills = 10
	for _, wl := range matrix {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			base, err := harness.Run(crashSpec(wl.name, wl.params, nil))
			if err != nil {
				t.Fatal(err)
			}
			baseKeys := perCoreKeys(base.Trace)

			for i := 1; i <= kills; i++ {
				kill := base.Cycles * uint64(i) / (kills + 1)
				plan, err := faults.Parse(fmt.Sprintf("kill:%d", kill))
				if err != nil {
					t.Fatal(err)
				}
				res, err := harness.Run(crashSpec(wl.name, wl.params, plan))
				if err != nil {
					t.Fatalf("kill %d: %v", kill, err)
				}
				if !res.Crashed {
					t.Fatalf("kill %d: run was not stopped", kill)
				}

				// The harness already loaded through the salvage path;
				// redo it explicitly so the test pins the public pipeline.
				f, rep, err := traceio.Salvage(res.TraceBytes)
				if err != nil {
					t.Fatalf("kill %d: salvage: %v", kill, err)
				}
				if rep.BytesStructural+rep.BytesRecovered+rep.BytesDamaged+rep.BytesSkipped != rep.BytesTotal {
					t.Fatalf("kill %d: salvage accounting does not add up: %+v", kill, rep)
				}
				tr, err := analyzer.FromSalvaged(f, rep)
				if err != nil {
					t.Fatalf("kill %d: load: %v", kill, err)
				}
				if !tr.Truncated {
					t.Fatalf("kill %d: crash trace not flagged truncated", kill)
				}
				if errs := analyzer.Errors(analyzer.Validate(tr)); len(errs) != 0 {
					t.Fatalf("kill %d: validation errors on salvaged prefix: %v", kill, errs)
				}

				// Prefix property per core: the salvaged records must be
				// exactly the first k of the baseline's stream.
				for core, got := range perCoreKeys(tr) {
					want := baseKeys[core]
					if len(got) > len(want) {
						t.Fatalf("kill %d core %d: salvaged %d records, baseline only has %d",
							kill, core, len(got), len(want))
					}
					for j := range got {
						if got[j] != want[j] {
							t.Fatalf("kill %d core %d: record %d diverges from baseline: %s vs %s",
								kill, core, j, got[j], want[j])
						}
					}
				}
			}
		})
	}
}

// TestFlushStallBackpressure checks that injected flush-DMA stalls slow
// the tracer (visible as flush cycles) without corrupting the trace or
// perturbing the workload's own transfers into failure.
func TestFlushStallBackpressure(t *testing.T) {
	params := map[string]string{"n": "128", "t": "32"}
	base, err := harness.Run(crashSpec("matmul", params, nil))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("stall:*:0:20000:8")
	if err != nil {
		t.Fatal(err)
	}
	stalled, err := harness.Run(crashSpec("matmul", params, plan))
	if err != nil {
		t.Fatal(err)
	}
	if stalled.Stats.FlushCycles <= base.Stats.FlushCycles {
		t.Fatalf("stalls did not slow flushing: %d vs baseline %d",
			stalled.Stats.FlushCycles, base.Stats.FlushCycles)
	}
	if stalled.Salvage != nil || stalled.Crashed {
		t.Fatal("stalls alone must not damage the trace")
	}
	if errs := analyzer.Errors(analyzer.Validate(stalled.Trace)); len(errs) != 0 {
		t.Fatalf("validation errors under stalls: %v", errs)
	}
	if stalled.Trace.NumEvents() == 0 {
		t.Fatal("empty trace under stalls")
	}
}

// TestCrashTraceSinglePointCorruption layers a single corrupted byte on a
// healthy trace and checks the recovery floor promised by Salvage: every
// chunk that ends before the damaged byte is recovered verbatim.
func TestCrashTraceSinglePointCorruption(t *testing.T) {
	base, err := harness.Run(crashSpec("matmul", map[string]string{"n": "128", "t": "32"}, nil))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := traceio.Parse(base.TraceBytes)
	if err != nil {
		t.Fatal(err)
	}
	// Index the clean chunks so salvaged chunks can be matched back.
	cleanKeys := map[string]bool{}
	for _, c := range clean.Chunks {
		cleanKeys[fmt.Sprintf("%d|%d|%x", c.Core, c.AnchorIdx, c.Data)] = true
	}
	// Offsets chosen inside the chunk region (past header + metadata).
	for _, off := range []int{len(base.TraceBytes) / 2, len(base.TraceBytes) - 30} {
		plan, err := faults.Parse(fmt.Sprintf("corrupt:%d:0x40", off))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := plan.MangleTrace(base.TraceBytes)
		f, rep, err := traceio.Salvage(data)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		verified := 0
		for _, c := range f.Chunks {
			if len(c.Data) > 0 && traceio.ChunkCRC(c) == c.CRC {
				verified++
				if !cleanKeys[fmt.Sprintf("%d|%d|%x", c.Core, c.AnchorIdx, c.Data)] {
					t.Fatalf("offset %d: verified chunk (core %d) is not in the clean trace", off, c.Core)
				}
			}
		}
		// A single corrupted byte touches at most one chunk (or the
		// footer); everything else must be recovered verbatim.
		if verified < len(clean.Chunks)-1 {
			t.Fatalf("offset %d: only %d of %d chunks recovered verbatim (report %+v)",
				off, verified, len(clean.Chunks), rep)
		}
		if _, err := analyzer.FromSalvaged(f, rep); err != nil {
			t.Fatalf("offset %d: load: %v", off, err)
		}
	}
}
