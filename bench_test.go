// Package pdt_test holds the benchmark harness: one sub-benchmark per
// evaluation table/figure (see DESIGN.md section 3), each running the
// shared experiment implementations in internal/harness so that
// `go test -bench` and `pdt-bench` produce the same rows. Under -short
// the experiments run with shrunken problem sizes.
//
// Custom metrics: experiments report simulated cycles and record counts
// through the printed tables; the b.N loop measures host-side cost of
// regenerating each table.
package pdt_test

import (
	"bytes"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cycles"
	"github.com/celltrace/pdt/internal/analyzer/diff"
	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/harness"
	"github.com/celltrace/pdt/internal/workloads"
)

// BenchmarkExperiments regenerates each evaluation table and figure
// (DESIGN.md section 3), one sub-benchmark per experiment:
// BenchmarkExperiments/E<n>.
func BenchmarkExperiments(b *testing.B) {
	quick := testing.Short()
	for _, e := range harness.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(quick); err != nil {
					b.Fatalf("%s: %v", e.ID, err)
				}
			}
		})
	}
}

// ---- micro-benchmarks of the hot paths backing the tables ----

// BenchmarkRecordEncode measures trace-record serialization.
func BenchmarkRecordEncode(b *testing.B) {
	r := event.Record{ID: event.SPEMFCGet, Core: 3, Flags: event.FlagDecrTime,
		Time: 12345, Args: []uint64{0, 0x10000, 4096, 5}}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = r.AppendTo(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordDecode measures trace-record parsing.
func BenchmarkRecordDecode(b *testing.B) {
	r := event.Record{ID: event.SPEMFCGet, Core: 3, Flags: event.FlagDecrTime,
		Time: 12345, Args: []uint64{0, 0x10000, 4096, 5}}
	buf, err := r.AppendTo(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := event.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceLoad measures the batch load layer — frame, place, merge
// and index, analyzer.FromFile — on the large trace of the benchmark's
// analyze_batch workload (synthetic events=10000 gap=100: about 3 MB and
// 80k records on 8 SPEs). The image is parsed once, outside the loop;
// -benchmem reports what one load allocates.
func BenchmarkTraceLoad(b *testing.B) {
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic",
		Params:   map[string]string{"events": "10000", "gap": "100"},
		Trace:    &cfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	f, err := traceio.Parse(res.TraceBytes)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(res.TraceBytes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyzer.FromFile(f); err != nil {
			b.Fatal(err)
		}
	}
}

// corpusSpec is one trace of the benchmark's corpus.
type corpusSpec struct {
	name, workload string
	large          bool
	params         map[string]string
}

// corpusSpecs mirrors corpusSpecs in bench/corpus.go at seed 1, which is
// its own module and cannot be imported here; keep the two in step. Of
// the two large traces, analysisLarge is the one the analysis workloads
// run and runLarge the one trace_run runs.
var corpusSpecs = []corpusSpec{
	{analysisLarge, "synthetic", true, map[string]string{"events": "10000", "gap": "100"}},
	{runLarge, "synthetic", true, map[string]string{"events": "4000", "gap": "100"}},
	{"matmul", "matmul", false, map[string]string{"n": "256", "t": "32", "buffers": "2", "seed": "1"}},
	{"pipeline", "pipeline", false, map[string]string{"blocks": "64", "blockbytes": "4096", "seed": "1"}},
	{"julia", "julia", false, map[string]string{"w": "256", "h": "128", "maxiter": "64", "mode": "dynamic"}},
	{"histogram", "histogram", false, map[string]string{"size": "1048576", "seed": "1"}},
	{"stencil", "stencil", false, map[string]string{"w": "256", "h": "128", "iters": "8", "seed": "1"}},
	{"taskfarm", "taskfarm", false, map[string]string{"tasks": "256", "blockbytes": "4096", "seed": "1"}},
}

const (
	analysisLarge = "synthetic10k"
	runLarge      = "synthetic4k"
)

// corpusWith lists one large trace of the corpus and the six small ones.
func corpusWith(large string) []corpusSpec {
	var out []corpusSpec
	for _, s := range corpusSpecs {
		if !s.large || s.name == large {
			out = append(out, s)
		}
	}
	return out
}

// BenchmarkTraceRunCorpus times one traced pdt-run equivalent per trace
// of the trace_run corpus at seed 1: machine, session, Prepare, Run,
// Verify and the trace written to memory. It does not use harness.Run,
// which also loads the trace. Each trace is its own sub-benchmark, so a
// change to one workload's host loops shows on its own row.
func BenchmarkTraceRunCorpus(b *testing.B) {
	for _, s := range corpusWith(runLarge) {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, err := workloads.New(s.workload)
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Configure(s.params); err != nil {
					b.Fatal(err)
				}
				m := cell.NewMachine(cell.DefaultConfig())
				cfg := core.DefaultTraceConfig()
				cfg.Workload = s.workload
				cfg.Params = w.Params()
				session := core.NewSession(m, cfg)
				session.Attach()
				if err := w.Prepare(m); err != nil {
					b.Fatal(err)
				}
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
				if err := w.Verify(m); err != nil {
					b.Fatal(err)
				}
				var buf bytes.Buffer
				if err := session.WriteTrace(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelsCorpus times analyze_batch's three costliest kernels on
// each trace of its corpus: cycles.Detect, and a self-diff plain and in
// align mode, as the benchmark's cycles, diff and diffalign kinds call
// them. The trace is simulated and loaded once per trace, outside the
// timed loops; each trace and kernel is its own sub-benchmark.
func BenchmarkKernelsCorpus(b *testing.B) {
	kernels := []struct {
		name string
		run  func(tr *analyzer.Trace) error
	}{
		{"cycles", func(tr *analyzer.Trace) error { cycles.Detect(tr, cycles.Options{}); return nil }},
		{"diff", func(tr *analyzer.Trace) error { _, err := diff.Diff(tr, tr, diff.Options{}); return err }},
		{"diffalign", func(tr *analyzer.Trace) error {
			_, err := diff.Diff(tr, tr, diff.Options{Mode: diff.ModeAlign})
			return err
		}},
	}
	for _, s := range corpusWith(analysisLarge) {
		b.Run(s.name, func(b *testing.B) {
			cfg := core.DefaultTraceConfig()
			res, err := harness.Run(harness.Spec{Workload: s.workload, Params: s.params, Trace: &cfg})
			if err != nil {
				b.Fatal(err)
			}
			tr, err := analyzer.Load(bytes.NewReader(res.TraceBytes))
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range kernels {
				b.Run(k.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := k.run(tr); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkSimulatedMachine measures simulator throughput: simulated
// cycles per host second on an untraced DMA-heavy workload.
func BenchmarkSimulatedMachine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(harness.Spec{
			Workload: "histogram",
			Params:   map[string]string{"size": "262144"},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "simcycles/op")
	}
}
