package harness

import (
	"runtime"
	"testing"

	"github.com/celltrace/pdt/internal/core"
)

// maxUntracedRunBytes bounds the heap one untraced run may allocate; 0
// where main memory comes from the heap (budget_unix_test.go sets it).
var maxUntracedRunBytes uint64

// TestRunAllocationBudget bounds the host allocations of one simulated
// run. The counts are properties of the code, not of the host: a
// simulated wakeup allocates nothing (PR 24; before it each cost two
// boxed heap entries, 64,359 and 131,229 allocations for these two runs),
// and where main memory is demand-zeroed a run no longer allocates the
// machine's 64 MiB.
func TestRunAllocationBudget(t *testing.T) {
	spec := Spec{Workload: "synthetic", Params: map[string]string{"events": "4000", "gap": "100"}}
	measure := func(s Spec) (allocs, bytes uint64) {
		const runs = 3
		run := func() {
			if _, err := Run(s); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm up: lazily built tables are not the run's cost
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}

	allocs, bytes := measure(spec)
	t.Logf("untraced: %d allocs, %d bytes per run", allocs, bytes)
	if allocs > 2000 {
		t.Errorf("untraced run: %d allocs, budget 2000", allocs)
	}
	if maxUntracedRunBytes > 0 && bytes > maxUntracedRunBytes {
		t.Errorf("untraced run: %d bytes allocated, budget %d", bytes, maxUntracedRunBytes)
	}

	cfg := core.DefaultTraceConfig()
	spec.Trace = &cfg
	allocs, bytes = measure(spec)
	t.Logf("traced: %d allocs, %d bytes per run", allocs, bytes)
	if allocs > 8000 {
		t.Errorf("traced run: %d allocs, budget 8000", allocs)
	}
}
