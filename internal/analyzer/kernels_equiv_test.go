package analyzer_test

// Equivalence suite for the parallel analysis kernels: for every
// registered workload, the sharded ComputeCriticalPath and Intervals
// must return results deeply equal to their serial references — same
// values, same order. Run under -race this also proves the shards touch
// disjoint state.

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/harness"
	"github.com/celltrace/pdt/internal/workloads"
)

func loadWorkloadTrace(t *testing.T, name string) *analyzer.Trace {
	t.Helper()
	params, ok := equivParams[name]
	if !ok {
		t.Fatalf("no equivalence params for workload %q — add it to equivParams", name)
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
	if tr.NumEvents() == 0 {
		t.Fatal("workload produced no records")
	}
	return tr
}

func TestParallelKernelsMatchSerialAllWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tr := loadWorkloadTrace(t, name)

			if want, got := analyzer.ComputeCriticalPathSerial(tr), analyzer.ComputeCriticalPath(tr); !reflect.DeepEqual(want, got) {
				t.Errorf("ComputeCriticalPath differs from serial:\nserial   %+v\nparallel %+v", want, got)
			}
			if want, got := analyzer.IntervalsSerial(tr), analyzer.Intervals(tr); !reflect.DeepEqual(want, got) {
				t.Errorf("Intervals differs from serial: %d vs %d intervals", len(want), len(got))
			}
		})
	}
}

// TestColumnarRoundTripAllWorkloads checks the columnar store against
// the record view it materializes: every event rebuilt from the columns
// must survive a round trip through SetEvents unchanged, and the
// per-core/per-run index views must agree before and after.
func TestColumnarRoundTripAllWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tr := loadWorkloadTrace(t, name)
			evs := tr.Events()
			rt := &analyzer.Trace{Meta: tr.Meta, Strings: tr.Strings, Confidence: tr.Confidence}
			rt.SetEvents(evs)
			if want, got := tr.NumEvents(), rt.NumEvents(); want != got {
				t.Fatalf("round trip lost events: %d -> %d", want, got)
			}
			for i, n := 0, tr.NumEvents(); i < n; i++ {
				if !reflect.DeepEqual(tr.Event(i), rt.Event(i)) {
					t.Fatalf("event %d differs after round trip:\nwant %+v\ngot  %+v",
						i, tr.Event(i), rt.Event(i))
				}
			}
			for _, c := range tr.Cores() {
				if want, got := tr.CoreEvents(c), rt.CoreEvents(c); !reflect.DeepEqual(want, got) {
					t.Fatalf("core %d view differs after round trip", c)
				}
			}
			for run := range tr.Meta.Anchors {
				if want, got := tr.RunEvents(run), rt.RunEvents(run); !reflect.DeepEqual(want, got) {
					t.Fatalf("run %d view differs after round trip", run)
				}
			}
		})
	}
}
