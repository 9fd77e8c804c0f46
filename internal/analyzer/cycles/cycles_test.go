package cycles_test

// Property suite for cycle detection. The anchors: the detected cycle
// count equals the configured iteration count for the iterative
// workloads (pipeline blocks, taskfarm tasks, stencil sweeps, stream
// chunks), per-cycle stats satisfy min <= avg <= max with stddev
// exactly 0 for byte-identical cycles, phases partition the run, and
// Detect on the worker pool is DeepEqual to Detect on a single P (run
// under -race by `make race`).

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cycles"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/core/traceio/tracetest"
	"github.com/celltrace/pdt/internal/harness"
	"github.com/celltrace/pdt/internal/workloads"
)

// cycleParams configures every registered workload small but
// representative; the iterative four get iteration counts the detector
// must reproduce exactly.
var cycleParams = map[string]map[string]string{
	"matmul":    {"n": "64", "t": "16"},
	"fft":       {"n": "256", "batches": "4"},
	"pipeline":  {"blocks": "8", "blockbytes": "1024"},
	"julia":     {"w": "64", "h": "32", "maxiter": "16", "mode": "dynamic"},
	"histogram": {"size": "65536"},
	"synthetic": {"events": "400", "gap": "100"},
	"stream":    {"elements": "131072"},
	"stencil":   {"w": "64", "h": "16", "iters": "4"},
	"sort":      {"elements": "8192", "chunk": "1024"},
	"nbody":     {"n": "64"},
	"taskfarm":  {"tasks": "16", "blockbytes": "1024"},
}

func cycleTrace(t *testing.T, name string) *analyzer.Trace {
	t.Helper()
	params, ok := cycleParams[name]
	if !ok {
		t.Fatalf("no cycle params for workload %q — add it to cycleParams", name)
	}
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{Workload: name, Params: params, Trace: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := analyzer.Load(bytes.NewReader(res.TraceBytes))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCycleCountsIterativeWorkloads pins detection to the configured
// iteration structure: per-run counts for workloads whose every core
// iterates a fixed number of times (pipeline stages, stencil sweeps),
// cross-core totals for workloads that partition a global work list
// (taskfarm tasks, stream chunks).
func TestCycleCountsIterativeWorkloads(t *testing.T) {
	cases := []struct {
		workload string
		perRun   int // exact cycles per detected run (0 = don't check)
		total    int // exact total across runs (0 = don't check)
	}{
		{"pipeline", 8, 0},  // blocks=8, every stage repeats per block
		{"stencil", 4, 0},   // iters=4 sweeps per SPE
		{"taskfarm", 0, 16}, // tasks=16 distributed across workers
		{"stream", 0, 32},   // elements/streamChunk = 131072/4096 chunks
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			tr := cycleTrace(t, tc.workload)
			rep := cycles.Detect(tr, cycles.Options{})
			if len(rep.Runs) == 0 {
				t.Fatal("no runs analyzed")
			}
			total := 0
			for _, run := range rep.Runs {
				if !run.Detected {
					t.Errorf("%s run %d: no cycles detected (%d events)",
						event.CoreName(run.Core), run.Run, run.Events)
					continue
				}
				total += len(run.Cycles)
				if tc.perRun > 0 && len(run.Cycles) != tc.perRun {
					t.Errorf("%s run %d: %d cycles (anchor %v, raw %d), want %d",
						event.CoreName(run.Core), run.Run, len(run.Cycles), run.Anchor, run.Raw, tc.perRun)
				}
			}
			if tc.total > 0 && total != tc.total {
				t.Errorf("total cycles = %d, want %d", total, tc.total)
			}
			if rep.TotalCycles != total {
				t.Errorf("TotalCycles = %d, sum = %d", rep.TotalCycles, total)
			}
		})
	}
}

// TestCycleInvariantsAllWorkloads checks the structural invariants on
// every registered workload: stats ordering, cycle ordering and
// containment, phase partition, and metric containment (busy + stall
// never exceeds wall).
func TestCycleInvariantsAllWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			tr := cycleTrace(t, name)
			rep := cycles.Detect(tr, cycles.Options{})
			if rep.Workload != tr.Meta.Workload {
				t.Errorf("workload = %q, want %q", rep.Workload, tr.Meta.Workload)
			}
			for _, run := range rep.Runs {
				checkRun(t, run)
			}
			var buf bytes.Buffer
			rep.Write(&buf)
			if buf.Len() == 0 {
				t.Error("empty text render")
			}
			buf.Reset()
			if err := rep.WriteJSON(&buf); err != nil {
				t.Errorf("WriteJSON: %v", err)
			}
		})
	}
}

func checkRun(t *testing.T, run cycles.Run) {
	t.Helper()
	label := fmt.Sprintf("%s run %d", event.CoreName(run.Core), run.Run)
	if !run.Detected {
		if len(run.Cycles) != 0 {
			t.Errorf("%s: undetected run carries %d cycles", label, len(run.Cycles))
		}
		return
	}
	if len(run.Cycles) < 1 {
		t.Errorf("%s: detected with no cycles", label)
	}
	if run.Raw < len(run.Cycles) {
		t.Errorf("%s: raw %d < kept %d", label, run.Raw, len(run.Cycles))
	}
	for _, st := range []struct {
		name string
		s    cycles.Stats
	}{{"wall", run.Wall}, {"busy", run.Busy}, {"stall", run.Stall}, {"dma-wait", run.DMAWait}} {
		if !(float64(st.s.Min) <= st.s.Avg && st.s.Avg <= float64(st.s.Max)) {
			t.Errorf("%s %s: min %d <= avg %g <= max %d violated", label, st.name, st.s.Min, st.s.Avg, st.s.Max)
		}
		if st.s.Stddev < 0 {
			t.Errorf("%s %s: negative stddev %g", label, st.name, st.s.Stddev)
		}
		if st.s.Min == st.s.Max && st.s.Stddev != 0 {
			t.Errorf("%s %s: constant metric with stddev %g", label, st.name, st.s.Stddev)
		}
	}
	prevEnd := run.Start
	first := true
	for _, c := range run.Cycles {
		if c.Start < run.Start || c.End > run.End || c.End < c.Start {
			t.Errorf("%s cycle %d: span [%d,%d] outside run [%d,%d]", label, c.Index, c.Start, c.End, run.Start, run.End)
		}
		if !first && c.Start < prevEnd {
			t.Errorf("%s cycle %d: overlaps previous (start %d < prev end %d)", label, c.Index, c.Start, prevEnd)
		}
		if c.Wall != c.End-c.Start {
			t.Errorf("%s cycle %d: wall %d != span %d", label, c.Index, c.Wall, c.End-c.Start)
		}
		if c.Busy+c.Stall > c.Wall {
			t.Errorf("%s cycle %d: busy %d + stall %d > wall %d", label, c.Index, c.Busy, c.Stall, c.Wall)
		}
		if c.DMAWait > c.Stall {
			t.Errorf("%s cycle %d: dma-wait %d > stall %d", label, c.Index, c.DMAWait, c.Stall)
		}
		if c.Events <= 0 || c.EndSeq < c.StartSeq {
			t.Errorf("%s cycle %d: bad event span %d [%d,%d]", label, c.Index, c.Events, c.StartSeq, c.EndSeq)
		}
		prevEnd = c.End
		first = false
	}
	ph := run.Phases
	if ph.StartupTicks+ph.SteadyTicks+ph.DrainTicks != run.End-run.Start {
		t.Errorf("%s: phases %d+%d+%d do not partition run wall %d",
			label, ph.StartupTicks, ph.SteadyTicks, ph.DrainTicks, run.End-run.Start)
	}
	if ph.SteadyStart != run.Cycles[0].Start || ph.SteadyEnd != run.Cycles[len(run.Cycles)-1].End {
		t.Errorf("%s: steady span [%d,%d] != cycle span", label, ph.SteadyStart, ph.SteadyEnd)
	}
}

// TestDetectSerialEquivalence: past the adaptive threshold Detect fans
// the runs out over the worker pool; with a single P the same call is a
// plain loop. The two must be DeepEqual (and race-clean under `make
// race`). The workload traces are all below the threshold, so
// "synthetic-large" is the case that takes the pool.
func TestDetectSerialEquivalence(t *testing.T) {
	detect := func(tr *analyzer.Trace, procs int) *cycles.Report {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return cycles.Detect(tr, cycles.Options{})
	}
	check := func(t *testing.T, tr *analyzer.Trace) {
		if !reflect.DeepEqual(detect(tr, 4), detect(tr, 1)) {
			t.Errorf("Detect on the pool != Detect on one P")
		}
	}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) { check(t, cycleTrace(t, name)) })
	}
	t.Run("synthetic-large", func(t *testing.T) {
		cfg := core.DefaultTraceConfig()
		res, err := harness.Run(harness.Spec{
			Workload: "synthetic",
			Params:   map[string]string{"events": "4200", "gap": "100"},
			Trace:    &cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := analyzer.Load(bytes.NewReader(res.TraceBytes))
		if err != nil {
			t.Fatal(err)
		}
		if tr.NumEvents() < analyzer.ParallelThreshold() {
			t.Fatalf("%d events: below the fan-out threshold %d", tr.NumEvents(), analyzer.ParallelThreshold())
		}
		check(t, tr)
	})
}

// encodedTrace loads rows through the test encoder.
func encodedTrace(t *testing.T, rows []tracetest.Row) *analyzer.Trace {
	t.Helper()
	tr, err := analyzer.Load(bytes.NewReader(tracetest.Encode(t, traceio.Meta{}, rows, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// syntheticCycleTrace builds a run of k byte-identical cycles: the same
// event pattern with the same intra-cycle offsets at a fixed period.
// Stddev of every metric must be exactly zero — float noise in the stats
// pipeline would break the regression gate downstream.
func syntheticCycleTrace(t *testing.T, k int) *analyzer.Trace {
	var rows []tracetest.Row
	add := func(id event.ID, global uint64, args ...uint64) {
		rows = append(rows, tracetest.Row{Rec: event.Record{ID: id, Args: tracetest.Args(id, args...)}, Global: global})
	}
	const period = 1000
	add(event.SPEProgramStart, 5)
	for i := 0; i < k; i++ {
		base := uint64(100 + i*period)
		add(event.SPEMFCGet, base, 1, 0x1000, 0x2000, 256)
		add(event.SPEWaitTagEnter, base+10, 1<<1)
		add(event.SPEWaitTagExit, base+210, 1<<1)
		add(event.SPEMFCPut, base+700, 1, 0x1000, 0x2000, 256)
	}
	// End at the same tick as the final Put: the last cycle extends to the
	// run's last row by construction, so any gap here would make its wall
	// time differ from the interior cycles'.
	add(event.SPEProgramEnd, uint64(100+(k-1)*period+700), 0)
	return encodedTrace(t, rows)
}

func TestStddevZeroByteIdenticalCycles(t *testing.T) {
	const k = 6
	tr := syntheticCycleTrace(t, k)
	rep := cycles.Detect(tr, cycles.Options{})
	if len(rep.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(rep.Runs))
	}
	run := rep.Runs[0]
	if !run.Detected {
		t.Fatal("no cycles detected in a perfectly periodic run")
	}
	if len(run.Cycles) != k {
		t.Fatalf("cycles = %d (anchor %v raw %d), want %d", len(run.Cycles), run.Anchor, run.Raw, k)
	}
	for _, st := range []struct {
		name string
		s    cycles.Stats
	}{{"wall", run.Wall}, {"busy", run.Busy}, {"stall", run.Stall}, {"dma-wait", run.DMAWait}} {
		if st.s.Stddev != 0 {
			t.Errorf("%s: stddev = %g over byte-identical cycles, want exactly 0", st.name, st.s.Stddev)
		}
		if st.s.Min != st.s.Max {
			t.Errorf("%s: min %d != max %d over byte-identical cycles", st.name, st.s.Min, st.s.Max)
		}
	}
	if run.DMAWait.Min == 0 {
		t.Error("dma-wait = 0; the synthetic pattern holds a tag wait for 200 ticks per cycle")
	}
	checkRun(t, run)
}

// TestNonIterativeTrace: a run without a repeating pattern reports
// Detected=false with zero cycles (the documented failure semantics of
// /v1/cycles for non-iterative traces).
func TestNonIterativeTrace(t *testing.T) {
	tr := encodedTrace(t, []tracetest.Row{
		{Rec: event.Record{ID: event.SPEProgramStart, Args: []uint64{0}}, Global: 1},
		{Rec: event.Record{ID: event.SPEMFCGet, Args: []uint64{1, 0, 0, 64}}, Global: 10},
		{Rec: event.Record{ID: event.SPEProgramEnd, Args: []uint64{0}}, Global: 20},
	})
	rep := cycles.Detect(tr, cycles.Options{})
	if len(rep.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(rep.Runs))
	}
	if rep.Runs[0].Detected {
		t.Error("detected cycles in a single-pass run")
	}
	if rep.TotalCycles != 0 {
		t.Errorf("TotalCycles = %d, want 0", rep.TotalCycles)
	}
	var buf bytes.Buffer
	rep.Write(&buf)
	if err := rep.WriteJSON(&buf); err != nil {
		t.Errorf("WriteJSON: %v", err)
	}
}
