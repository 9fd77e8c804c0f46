package kinds_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer/kinds"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/harness"
)

var updateOrderGolden = flag.Bool("update", false, "rewrite testdata/speevent10.golden")

const orderGoldenPath = "testdata/speevent10.golden"

// TestCheapEventsGolden pins every kind's JSON (size and SHA-256) for
// three workloads traced at a 10-cycle SPE event cost, double-buffered.
// At that cost a TRACE_FLUSH record often shares its decrementer stamp
// with the record whose arrival forced the flush, so the file order the
// tracer gives such a pair decides the merged order, and critpath and
// cycles see it. -update only for a change that means to move the
// analysis.
func TestCheapEventsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, w := range []string{"histogram", "pipeline", "synthetic"} {
		cfg := core.DefaultTraceConfig()
		cfg.SPEEventCost = 10
		res, err := harness.Run(harness.Spec{Workload: w, Trace: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		out := kindsJSON(t, res.TraceBytes)
		for _, k := range kinds.All {
			fmt.Fprintf(&got, "%s %s %d %x\n", w, k.Name, len(out[k.Name]), sha256.Sum256(out[k.Name]))
		}
	}
	if *updateOrderGolden {
		if err := os.WriteFile(orderGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(orderGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("kind output changed:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
