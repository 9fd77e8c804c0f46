package analyzer_test

// Equivalence suite for the analysis kernels that have a reference
// implementation: for every registered workload, ComputeCriticalPath
// (predecessors read off the per-core index) must return results deeply
// equal to its serial reference — same values, same order — and
// CoreStateTicks the sums of the intervals it folds without building.

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/core/traceio/tracetest"
	"github.com/celltrace/pdt/internal/harness"
	"github.com/celltrace/pdt/internal/workloads"
)

func loadWorkloadTrace(t *testing.T, name string) *analyzer.Trace {
	t.Helper()
	tr, err := analyzer.Load(bytes.NewReader(traceWorkload(t, name)))
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
		})
	}
}

// TestCoreStateTicksSumIntervals: CoreStateTicks folds the run machine's
// and the PPE lane walks' intervals without building them, so for every
// core and state it must equal the summed durations of Intervals and
// PPEIntervals — on every workload clean, cut to 70% and as a salvaged
// live mirror, and on a trace past the size at which the runs fold on the
// pool. Both the pooled and the plain fold are checked.
func TestCoreStateTicksSumIntervals(t *testing.T) {
	check := func(label string, tr *analyzer.Trace) {
		t.Helper()
		var want [256]analyzer.StateTicks
		for _, list := range [][]analyzer.Interval{analyzer.Intervals(tr), analyzer.PPEIntervals(tr)} {
			for _, iv := range list {
				want[iv.Core][iv.State] += iv.Dur()
			}
		}
		for _, parallel := range []bool{false, true} {
			if got := analyzer.CoreStateTicks(tr, parallel); *got != want {
				for c := range want {
					if got[c] != want[c] {
						t.Errorf("%s, parallel %v: core %d folds to %v, its intervals sum to %v", label, parallel, c, got[c], want[c])
					}
				}
			}
		}
	}
	for _, name := range workloads.Names() {
		live, sealed := liveWorkload(t, name)
		tr, err := analyzer.Load(bytes.NewReader(sealed))
		if err != nil {
			t.Fatal(err)
		}
		check(name+" clean", tr)
		if tr, err = analyzer.Load(bytes.NewReader(sealed[:len(sealed)*7/10])); err != nil {
			t.Fatalf("%s cut: %v", name, err)
		}
		check(name+" cut", tr)
		f, rep, err := traceio.Salvage(live)
		if err != nil {
			t.Fatalf("%s live: %v", name, err)
		}
		if tr, err = analyzer.FromSalvaged(f, rep); err != nil {
			t.Fatalf("%s live: %v", name, err)
		}
		check(name+" live", tr)
	}
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic", Params: map[string]string{"events": "5000", "gap": "100"}, Trace: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := analyzer.Load(bytes.NewReader(res.TraceBytes))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEvents() < analyzer.ParallelThreshold() {
		t.Fatalf("synthetic trace has %d events, under the %d at which runs fold on the pool", tr.NumEvents(), analyzer.ParallelThreshold())
	}
	check("synthetic events=5000", tr)
}

// TestColumnarRoundTripAllWorkloads takes every workload's store back to
// bytes and loads it again: the rows, written out by the test encoder
// in 64-record chunks, must come back row for row, on every column,
// with the same strings. The raw stamps differ: the encoder anchors each
// run at its first record, so an SPE record's decrementer time counts
// from there.
func TestColumnarRoundTripAllWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tr := loadWorkloadTrace(t, name)
			s := tr.Columns()
			rows := make([]tracetest.Row, s.Len())
			for i := range rows {
				rows[i] = tracetest.Row{Rec: tr.Record(i), Global: s.Global[i], Run: int(s.Run[i])}
			}
			rt, err := analyzer.Load(bytes.NewReader(tracetest.Encode(t, tr.Meta, rows, 64)))
			if err != nil {
				t.Fatal(err)
			}
			analyzer.AssertStoresEqual(t, s, nil, rt)
			if !reflect.DeepEqual(tr.Strings, rt.Strings) {
				t.Fatal("string tables differ after the round trip")
			}
		})
	}
}
