package analyzer_test

// Host-independent allocation gate for the summarising kernels. They
// fold the column store in place; a kernel that starts materialising an
// Event per row again (6.5 MB per Summarize on this trace before the
// accumulators became the kernels) fails here, on any machine.

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/harness"
)

func TestKernelAllocationBudget(t *testing.T) {
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic",
		Params:   map[string]string{"events": "5000", "gap": "100"},
		Trace:    &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := analyzer.Load(bytes.NewReader(res.TraceBytes))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEvents() < 32<<10 {
		t.Fatalf("trace has %d events, the gate wants at least 32k", tr.NumEvents())
	}

	analyzer.Summarize(tr) // warm-up: one-time runtime allocations
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	analyzer.Summarize(tr)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Errorf("Summarize allocated %d bytes on %d events, budget is under 256 KiB", got, tr.NumEvents())
	}

	if issues := analyzer.Validate(tr); len(issues) != 0 {
		t.Fatalf("trace is not clean: %v", issues)
	}
	for _, k := range []struct {
		name   string
		budget float64
		run    func()
	}{
		{"Validate", 32, func() { analyzer.Validate(tr) }},
		{"Profile", 32, func() { analyzer.Profile(tr) }},
		{"SummarizePPE", 8, func() { analyzer.SummarizePPE(tr) }},
		{"TagBreakdown", 8, func() { analyzer.TagBreakdown(tr) }},
	} {
		if got := testing.AllocsPerRun(5, k.run); got > k.budget {
			t.Errorf("%s: %.0f allocs per run, budget is %.0f", k.name, got, k.budget)
		}
	}
}
