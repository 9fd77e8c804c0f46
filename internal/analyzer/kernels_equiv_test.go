package analyzer_test

// Equivalence suite for the analysis kernels that have a reference
// implementation: for every registered workload, ComputeCriticalPath
// (predecessors read off the per-core index) and the sharded Intervals
// must return results deeply equal to their serial references — same
// values, same order. Run under -race this also proves the Intervals
// shards touch disjoint state.

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core/traceio/tracetest"
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
			if want, got := analyzer.IntervalsSerial(tr), analyzer.Intervals(tr); !reflect.DeepEqual(want, got) {
				t.Errorf("Intervals differs from serial: %d vs %d intervals", len(want), len(got))
			}
		})
	}
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
