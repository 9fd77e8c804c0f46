package analyzer_test

// Characterisation golden for the analysis kernels: absolute output, not
// agreement between two implementations. Every workload (plus one
// truncated, one lossy and one salvaged trace, and one hand-built trace
// that drives every critical-path channel) is rendered through Report, the
// profile table, the gap report, the tag breakdown, Validate and the
// critical path, and the SHA-256 of that text is compared with
// testdata/kernels.golden. A
// change to how any kernel counts shows up here even when batch and
// stream still agree with each other.

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/core/traceio/tracetest"
	"github.com/celltrace/pdt/internal/harness"
	"github.com/celltrace/pdt/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/kernels.golden and testdata/doctor.golden")

const kernelGoldenPath = "testdata/kernels.golden"

// renderKernels renders everything the summarising kernels say about tr.
func renderKernels(tr *analyzer.Trace) []byte {
	var w bytes.Buffer
	// Report first: Validate appends to tr.Issues, and its end-of-scan
	// findings come out in map order.
	s := analyzer.Summarize(tr)
	fmt.Fprintln(&w, "== report")
	analyzer.Report(tr, s, &w)
	fmt.Fprintln(&w, "== summary")
	fmt.Fprintf(&w, "%+v\n", *s)
	fmt.Fprintf(&w, "ppe %+v\n", s.PPE)
	fmt.Fprintf(&w, "effective concurrency %v\n", s.EffectiveConcurrency())
	fmt.Fprintf(&w, "confidence %+v\n", tr.Confidence)

	fmt.Fprintln(&w, "== profile")
	pairs := analyzer.Profile(tr)
	analyzer.WriteProfilePairs(tr, pairs, &w)
	for _, p := range pairs {
		fmt.Fprintf(&w, "%+v\n", p)
	}

	fmt.Fprintln(&w, "== gaps")
	minTicks := analyzer.SuggestGapThreshold(tr)
	gaps := analyzer.FindGaps(tr, minTicks)
	analyzer.WriteGapsFound(minTicks, gaps, len(gaps), &w)

	fmt.Fprintln(&w, "== tags")
	for _, ts := range analyzer.TagBreakdown(tr) {
		fmt.Fprintf(&w, "%+v\n", ts)
	}

	fmt.Fprintln(&w, "== validate")
	var findings []string
	for _, is := range analyzer.Validate(tr) {
		findings = append(findings, is.String())
	}
	slices.Sort(findings)
	for _, f := range findings {
		fmt.Fprintln(&w, f)
	}

	fmt.Fprintln(&w, "== critpath")
	if err := analyzer.WriteCriticalPathJSON(analyzer.ComputeCriticalPath(tr), &w); err != nil {
		panic(err) // a bytes.Buffer takes every write
	}
	return w.Bytes()
}

// critpathChannelRows is one chain of waits through every critical-path
// channel, each receive issued just after its send so that the walk takes
// every cross-core edge. A mailbox write is a send from its ENTER row. Each channel also has one receive with no
// pending send, issued after a matched event on its core so that the walk
// passes through it. The join and outbound-mailbox receives name their
// SPE as 256 or more: they key on the low byte of the argument. The
// start and inbound-mailbox sends to SPE 257 key on the whole word, so
// they must not reach SPE 1, where either would bind its unmatched receive.
func critpathChannelRows() []tracetest.Row {
	ppe := func(g uint64, id event.ID, args ...uint64) tracetest.Row {
		return tracetest.Row{Rec: event.Record{ID: id, Core: event.CorePPE, Args: tracetest.Args(id, args...)}, Global: g, Run: -1}
	}
	spe := func(g uint64, core uint8, id event.ID, args ...uint64) tracetest.Row {
		return tracetest.Row{Rec: event.Record{ID: id, Core: core, Args: tracetest.Args(id, args...)}, Global: g, Run: int(core)}
	}
	return []tracetest.Row{
		ppe(5, event.PPESPEStart, 257),
		spe(10, 1, event.SPEProgramStart), // unmatched start
		spe(19, 1, event.SPEWriteOutMboxEnter, 7),
		spe(20, 1, event.SPEWriteOutMboxExit, 7),
		ppe(30, event.PPEReadOutMboxExit, 257, 7),
		ppe(31, event.PPEReadOutMboxExit, 1), // unmatched outbound mailbox
		ppe(40, event.PPESPEStart, 0),
		spe(50, 0, event.SPEProgramStart),
		spe(59, 0, event.SPEWriteIntrMboxEnter, 8),
		spe(60, 0, event.SPEWriteIntrMboxExit, 8),
		ppe(70, event.PPEReadIntrMboxExit, 256, 8),
		ppe(79, event.PPEWriteInMboxEnter, 1, 9),
		ppe(80, event.PPEWriteInMboxExit, 1, 9),
		spe(90, 1, event.SPEReadInMboxExit, 9),
		ppe(91, event.PPEWriteInMboxEnter, 257, 10),
		ppe(92, event.PPEWriteInMboxExit, 257, 10),
		spe(94, 1, event.SPEReadInMboxExit), // unmatched inbound mailbox
		spe(100, 1, event.SPESndsig, 0, 1, 11),
		spe(110, 0, event.SPEReadSignalExit, 1, 11),
		spe(111, 0, event.SPEReadSignalExit, 1), // unmatched signal
		spe(120, 0, event.SPEProgramEnd),
		ppe(130, event.PPEWaitExit, 256),
		ppe(140, event.PPEWriteSignal, 1, 2, 12),
		spe(150, 1, event.SPEReadSignalExit, 2, 12),
		spe(160, 1, event.SPEProgramEnd),
		ppe(170, event.PPEWaitExit, 257),
		ppe(171, event.PPEWaitExit, 1), // unmatched join
	}
}

// traceWorkloadWith is traceWorkload under a caller-chosen tracer
// configuration.
func traceWorkloadWith(t *testing.T, name string, cfg core.Config) []byte {
	t.Helper()
	res, err := harness.Run(harness.Spec{Workload: name, Params: workloads.Small(name), Trace: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	return res.TraceBytes
}

// kernelGoldenTraces loads the traces the golden covers, in file order.
func kernelGoldenTraces(t *testing.T) (names []string, traces map[string]*analyzer.Trace) {
	t.Helper()
	traces = map[string]*analyzer.Trace{}
	add := func(name string, tr *analyzer.Trace, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names = append(names, name)
		traces[name] = tr
	}
	for _, name := range workloads.Names() {
		tr, err := analyzer.Load(bytes.NewReader(traceWorkload(t, name)))
		add(name, tr, err)
	}

	// A tiny single SPE buffer makes every run flush synchronously many
	// times, so the flush state is exercised and the cut lands among many
	// chunks.
	small := core.DefaultTraceConfig()
	small.SPEBufferSize = 512
	small.DoubleBuffered = false
	data := traceWorkloadWith(t, "pipeline", small)
	f, err := traceio.Parse(data[:len(data)*80/100])
	if err != nil {
		t.Fatal(err)
	}
	tr, err := analyzer.FromFile(f)
	add("pipeline.truncated", tr, err)
	if !tr.Truncated {
		t.Fatal("80% cut did not load as truncated")
	}

	// A main-memory region too small for the run: the tracer drops records
	// and says so in the metadata, which is the other source of degraded
	// confidence.
	lossy := core.DefaultTraceConfig()
	lossy.SPEBufferSize = 1024
	lossy.MainBufferPerSPE = 2048
	tr, err = analyzer.Load(bytes.NewReader(traceWorkloadWith(t, "synthetic", lossy)))
	add("synthetic.lossy", tr, err)
	if len(tr.Meta.Drops) == 0 {
		t.Fatal("lossy configuration dropped nothing")
	}

	// Stamp garbage over the middle of a chunk so the salvager has to trim
	// it and confidence drops below 1.
	damaged := append([]byte(nil), traceWorkload(t, "pipeline")...)
	for i := len(damaged) / 2; i < len(damaged)/2+64; i++ {
		damaged[i] = 0xA5
	}
	f, rep, err := traceio.Salvage(damaged)
	if err != nil {
		t.Fatal(err)
	}
	tr, err = analyzer.FromSalvaged(f, rep)
	add("pipeline.salvaged", tr, err)
	if !tr.Confidence.Degraded() {
		t.Fatal("salvaged trace is not degraded; the golden would not cover the confidence columns")
	}

	tr, err = analyzer.Load(bytes.NewReader(tracetest.Encode(t, traceio.Meta{}, critpathChannelRows(), 0)))
	add("critpath.channels", tr, err)
	return names, traces
}

func TestKernelCharacterisationGolden(t *testing.T) {
	names, traces := kernelGoldenTraces(t)
	rendered := map[string][]byte{}
	var got bytes.Buffer
	for _, name := range names {
		rendered[name] = renderKernels(traces[name])
		fmt.Fprintf(&got, "%s %x\n", name, sha256.Sum256(rendered[name]))
	}
	if *updateGolden {
		if err := os.WriteFile(kernelGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(kernelGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	wantDigest := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		name, digest, _ := strings.Cut(line, " ")
		wantDigest[name] = digest
	}
	if len(wantDigest) != len(names) {
		t.Errorf("golden lists %d traces, test renders %d", len(wantDigest), len(names))
	}
	// t.TempDir is removed when the test returns, so the text a reader
	// needs for the diff goes to a directory that outlives it.
	var dir string
	for _, name := range names {
		if fmt.Sprintf("%x", sha256.Sum256(rendered[name])) == wantDigest[name] {
			continue
		}
		if dir == "" {
			if dir, err = os.MkdirTemp("", "kernels-golden-"); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name+".txt")
		if err := os.WriteFile(path, rendered[name], 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s: kernel output changed; rendered text written to %s "+
			"(render the same file at the previous commit and diff; -update only for an intended change)", name, path)
	}
}
