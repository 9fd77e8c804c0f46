package analyzer_test

// External test package: the equivalence suite drives whole traced
// workload runs through the harness (which itself imports analyzer), so
// it cannot live in package analyzer.

import (
	"reflect"
	"slices"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/harness"
	"github.com/celltrace/pdt/internal/workloads"
)

// equivParams gives every registered workload a small but representative
// configuration, so the suite stays fast while covering every record mix
// the workloads produce.
var equivParams = map[string]map[string]string{
	"matmul":    {"n": "64", "t": "16"},
	"fft":       {"n": "256", "batches": "4"},
	"pipeline":  {"blocks": "8", "blockbytes": "1024"},
	"julia":     {"w": "64", "h": "32", "maxiter": "16", "mode": "dynamic"},
	"histogram": {"size": "65536"},
	"synthetic": {"events": "400", "gap": "100"},
	"stream":    {"elements": "8192"},
	"stencil":   {"w": "64", "h": "16", "iters": "2"},
	"sort":      {"elements": "8192", "chunk": "1024"},
	"nbody":     {"n": "64"},
	"taskfarm":  {"tasks": "16", "blockbytes": "1024"},
}

// TestParallelLoadMatchesSerialAllWorkloads runs every registered
// workload traced and asserts the parallel pipeline reconstructs a store
// identical — row for row, including tie-break order — to the serial
// stable-sort reference.
func TestParallelLoadMatchesSerialAllWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			params, ok := equivParams[name]
			if !ok {
				t.Fatalf("no equivalence params for workload %q — add it to equivParams", name)
			}
			cfg := core.DefaultTraceConfig()
			res, err := harness.Run(harness.Spec{Workload: name, Params: params, Trace: &cfg})
			if err != nil {
				t.Fatal(err)
			}
			f, err := traceio.Parse(res.TraceBytes)
			if err != nil {
				t.Fatal(err)
			}
			want, err := analyzer.FromFileSerial(f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := analyzer.FromFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if want.NumEvents() == 0 {
				t.Fatal("reference trace is empty — workload produced no records")
			}
			analyzer.AssertStoresEqual(t, want.Columns(), got.Columns())
			if !reflect.DeepEqual(want.Issues, got.Issues) {
				t.Fatalf("issues differ: serial %v, parallel %v", want.Issues, got.Issues)
			}
			if !reflect.DeepEqual(want.Strings, got.Strings) {
				t.Fatalf("string tables differ")
			}
			for run := range want.Meta.Anchors {
				if !slices.Equal(want.RunSeqs(run), got.RunSeqs(run)) {
					t.Fatalf("RunSeqs(%d) differ", run)
				}
			}
			if !slices.Equal(want.CoreSeqs(event.CorePPE), got.CoreSeqs(event.CorePPE)) {
				t.Fatal("CoreSeqs(PPE) differ")
			}
		})
	}
}
