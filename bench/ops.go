package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime/metrics"
	"time"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/analyzer/cycles"
	"github.com/celltrace/pdt/internal/analyzer/diff"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// workload describes one benchmark workload: who calls, over which kinds,
// in which class mix.
type workload struct {
	name          string
	callers       int
	kinds         []string // nil: ops differ only by trace
	large         string   // the large-class trace it uses
	smallPerLarge int
	serve         bool // drives a pdt-tad over HTTP instead of calling in-process
}

func (w workload) numKinds() int {
	if w.kinds == nil {
		return 1
	}
	return len(w.kinds)
}

// The callers are a closed loop: a CLI user or a CI job posting to
// pdt-tad waits for its reply before sending the next request. The
// in-process workloads use one caller so that the analyzer's own
// parallelism keeps the second core; the serve workloads use two
// keep-alive connections, never more than nproc.
var workloadList = []workload{
	{name: "trace_run", callers: 1, large: runLarge, smallPerLarge: 1},
	{name: "analyze_batch", callers: 1, kinds: batchKinds, large: analysisLarge, smallPerLarge: 3},
	{name: "analyze_stream", callers: 1, large: analysisLarge, smallPerLarge: 3},
	{name: "serve_warm", callers: 2, kinds: servedKinds, large: analysisLarge, smallPerLarge: 3, serve: true},
	{name: "serve_cold", callers: 2, kinds: servedKinds, large: analysisLarge, smallPerLarge: 3, serve: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opFunc runs one op and returns the latency a caller saw. Work a caller
// does before sending (body preparation) and the oracle's checks are
// outside the returned latency.
type opFunc func(seq int, it item, r *recorder) (time.Duration, error)

// traceRunOp is one pdt-run equivalent. In the traced pass every op is
// followed by its untraced twin, which gives the simulator's own speed
// and, by difference, the host cost of tracing.
func traceRunOp(corpus []*trace) opFunc {
	return func(seq int, it item, r *recorder) (time.Duration, error) {
		t := corpus[it.Trace]
		t0 := time.Now()
		root := r.begin("trace_run")
		res, err := simulate(t.spec, true, r)
		r.end(root)
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		if r != nil {
			root = r.begin("untraced_run")
			_, err := simulate(t.spec, false, r)
			r.end(root)
			if err != nil {
				return d, err
			}
		}
		return d, checkRun(t, res)
	}
}

// batchAnalysis is one `pdt-ta <kind>` equivalent up to the kernel: it
// returns the renderer of the result.
func batchAnalysis(t *trace, kind string, tr *analyzer.Trace) (render func(io.Writer), err error) {
	switch kind {
	case "summary":
		sum := analyzer.Summarize(tr)
		if uint64(sum.TotalRecs) != t.Records {
			return nil, fmt.Errorf("%s: summary counts %d records, tracer wrote %d", t.Name, sum.TotalRecs, t.Records)
		}
		return func(w io.Writer) { analyzer.Report(tr, sum, w) }, nil
	case "profile":
		pairs := analyzer.Profile(tr)
		return func(w io.Writer) { analyzer.WriteProfilePairs(tr, pairs, w) }, nil
	case "gaps":
		min := analyzer.SuggestGapThreshold(tr)
		gaps := analyzer.FindGaps(tr, min)
		return func(w io.Writer) { analyzer.WriteGapsFound(min, gaps, 15, w) }, nil
	case "critpath":
		cp := analyzer.ComputeCriticalPath(tr)
		return func(w io.Writer) { analyzer.WriteCriticalPathFrom(cp, w, 10) }, nil
	case "cycles":
		rep := cycles.Detect(tr, cycles.Options{})
		return rep.Write, checkCycles(t, rep)
	case "diff", "diffalign":
		// Self-diff, as in bench_test.go: both sides scan the full event
		// volume while needing one load.
		opt := diff.Options{}
		if kind == "diffalign" {
			opt.Mode = diff.ModeAlign
		}
		rep, err := diff.Diff(tr, tr, opt)
		if err != nil {
			return nil, err
		}
		if !rep.Zero() {
			return nil, fmt.Errorf("%s: self-%s is not zero", t.Name, kind)
		}
		return rep.Write, nil
	}
	return nil, fmt.Errorf("unknown kind %q", kind)
}

// analyzeBatch is one `pdt-ta <kind> trace.pdt` equivalent and returns
// what it would print. Allocation counts are taken on the large trace
// only: the stop-the-world reading would be a visible share of a small
// op.
func analyzeBatch(t *trace, kind string, r *recorder) ([]byte, error) {
	root := r.begin("analyze_batch")
	sp := r.begin("traceio.Parse")
	f, err := traceio.Parse(t.data)
	r.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.beginAllocIf(t.Large, "analyzer.Load")
	tr, err := analyzer.FromFileContext(context.Background(), f, analyzer.Limits{})
	r.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.begin("analyzer.Validate")
	issues := analyzer.Validate(tr)
	r.end(sp)
	if err := checkLoaded(t, int64(tr.NumEvents()), issues); err != nil {
		return nil, err
	}
	sp = r.beginAllocIf(t.Large, "kernel."+kind)
	render, err := batchAnalysis(t, kind, tr)
	r.end(sp)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	sp = r.begin("render." + kind)
	render(&out)
	r.end(sp)
	r.end(root)
	return out.Bytes(), nil
}

func analyzeBatchOp(corpus []*trace) opFunc {
	return func(seq int, it item, r *recorder) (time.Duration, error) {
		t, kind := corpus[it.Trace], batchKinds[it.Kind]
		t0 := time.Now()
		out, err := analyzeBatch(t, kind, r)
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		return d, checkOutput(t, "batch/"+kind, out)
	}
}

const (
	// streamWrite is the size of one StreamLoader.Write, a transport-sized
	// piece as in BenchmarkLoadStream.
	streamWrite = 64 << 10
	// streamWindow is small enough that the large trace is folded in
	// several windows, which is the path that makes streaming bounded.
	streamWindow = 4 << 20
)

// analyzeStream pushes one trace through the streaming loader and
// returns the report. peakHeap, when non-nil, keeps the largest live heap
// seen after a write.
func analyzeStream(t *trace, r *recorder, peakHeap *uint64) ([]byte, error) {
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	root := r.begin("analyze_stream")
	load := r.beginAllocIf(t.Large, "stream.Load")
	l := analyzer.NewStreamLoader(analyzer.StreamOptions{
		Limits:   analyzer.Limits{StreamWindowBytes: streamWindow},
		Validate: true,
	})
	for off := 0; off < len(t.data); off += streamWrite {
		end := min(off+streamWrite, len(t.data))
		sp := r.begin("stream.Write")
		_, err := l.Write(t.data[off:end])
		r.end(sp)
		if err != nil {
			return nil, err
		}
		if peakHeap != nil {
			metrics.Read(heap)
			*peakHeap = max(*peakHeap, heap[0].Value.Uint64())
		}
	}
	sp := r.begin("stream.Finish")
	res, err := l.Finish()
	r.end(sp)
	r.end(load)
	if err != nil {
		return nil, err
	}
	if !res.Complete {
		return nil, fmt.Errorf("%s: stream result not complete", t.Name)
	}
	if err := checkLoaded(t, res.Events, res.Trace.Issues); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	sp = r.begin("stream.Report")
	res.Report(&out)
	r.end(sp)
	r.end(root)
	return out.Bytes(), nil
}

func analyzeStreamOp(corpus []*trace, peakHeap *uint64) opFunc {
	return func(seq int, it item, r *recorder) (time.Duration, error) {
		t := corpus[it.Trace]
		peak := peakHeap
		if r == nil {
			peak = nil
		}
		t0 := time.Now()
		out, err := analyzeStream(t, r, peak)
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		return d, checkOutput(t, "stream/report", out)
	}
}

// batchReport is the batch path's rendering of what analyzeStream
// prints: the reference the streamed report must equal byte for byte.
func batchReport(t *trace) ([]byte, error) {
	tr, err := analyzer.Load(bytes.NewReader(t.data))
	if err != nil {
		return nil, err
	}
	analyzer.Validate(tr)
	var out bytes.Buffer
	analyzer.Report(tr, analyzer.Summarize(tr), &out)
	return out.Bytes(), nil
}

// fillWant produces the reference outputs the workload's oracle compares
// against, and for serve workloads the parsed files fresh bodies are
// made from.
func fillWant(corpus []*trace, w workload) error {
	for _, t := range corpus {
		if t.Large && t.Name != w.large {
			continue
		}
		switch {
		case w.name == "analyze_batch":
			for _, kind := range batchKinds {
				out, err := analyzeBatch(t, kind, nil)
				if err != nil {
					return err
				}
				t.setWant("batch/"+kind, out)
			}
		case w.name == "analyze_stream":
			out, err := batchReport(t)
			if err != nil {
				return err
			}
			t.setWant("stream/report", out)
		case w.serve:
			h, err := cache.New(0, 0).Load(context.Background(), t.data, analyzer.DefaultServiceLimits())
			if err != nil {
				return err
			}
			for _, kind := range servedKinds {
				out, err := cache.Render(kind, h)
				if err != nil {
					return err
				}
				t.setWant("serve/"+kind, out)
			}
			if t.file, err = traceio.Parse(t.data); err != nil {
				return err
			}
		}
	}
	return nil
}
