//go:build unix

package pdt_test

import (
	"io"
	"runtime"
	"syscall"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/diff"
	"github.com/celltrace/pdt/internal/analyzer/kinds"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/harness"
)

// BenchmarkBatchOpCollected times one analyze_batch op per kind on the
// large analysis trace, the way the benchmark's loop runs it: parse,
// load, Validate, kernel and render, with a collection between ops
// outside the timer. BenchmarkKernelsCorpus never collects between
// calls, so it cannot see what an op pays after one: the zeroing of the
// arrays it allocates afresh, and a minor page fault on every page of
// them the scavenger has handed back. The minflt/op metric counts the
// process's minor faults per op (getrusage).
func BenchmarkBatchOpCollected(b *testing.B) {
	var spec corpusSpec
	for _, s := range corpusSpecs {
		if s.name == analysisLarge {
			spec = s
		}
	}
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{Workload: spec.workload, Params: spec.params, Trace: &cfg})
	if err != nil {
		b.Fatal(err)
	}
	type op struct {
		name string
		run  func(tr *analyzer.Trace, w io.Writer) error
	}
	var ops []op
	for _, k := range kinds.All {
		ops = append(ops, op{k.Name, func(tr *analyzer.Trace, w io.Writer) error {
			k.Text(tr, k.Compute(tr), 0, w)
			return nil
		}})
	}
	for _, mode := range []string{"", diff.ModeAlign} {
		ops = append(ops, op{"diff" + mode, func(tr *analyzer.Trace, w io.Writer) error {
			rep, err := diff.Diff(tr, tr, diff.Options{Mode: mode})
			if err == nil {
				rep.Write(w)
			}
			return err
		}})
	}
	for _, o := range ops {
		b.Run(o.name, func(b *testing.B) {
			var faults int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				before := minorFaults()
				b.StartTimer()
				f, err := traceio.Parse(res.TraceBytes)
				if err != nil {
					b.Fatal(err)
				}
				tr, err := analyzer.FromFile(f)
				if err != nil {
					b.Fatal(err)
				}
				analyzer.Validate(tr)
				if err := o.run(tr, io.Discard); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				faults += minorFaults() - before
				b.StartTimer()
			}
			b.ReportMetric(float64(faults)/float64(b.N), "minflt/op")
		})
	}
}

// minorFaults is the process's minor page faults so far.
func minorFaults() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Minflt)
}
