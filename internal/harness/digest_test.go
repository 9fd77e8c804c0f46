package harness

// Absolute pin on what the simulator and the tracer produce: the SHA-256
// of the trace of every workload at its default parameters (what
// `pdt-run -workload <w>` writes), one killed run and one
// single-buffered run, against testdata/traces.golden. The model is
// deterministic, so a digest moves only when dispatch order, cycle
// accounting or the trace encoding does. A change that is meant to leave
// the simulated machine alone must leave this file alone; -update is
// only for a change that means to move it.

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/faults"
	"github.com/celltrace/pdt/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

const traceGoldenPath = "testdata/traces.golden"

func TestWorkloadTraceDigests(t *testing.T) {
	type run struct {
		name         string
		spec         Spec
		singleBuffer bool
	}
	var runs []run
	for _, w := range workloads.Names() {
		runs = append(runs, run{name: w, spec: Spec{Workload: w}})
	}
	kill, err := faults.Parse("kill:250000")
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs,
		run{name: "pipeline.kill", spec: Spec{Workload: "pipeline", Faults: kill}},
		run{name: "pipeline.singlebuffer", spec: Spec{Workload: "pipeline"}, singleBuffer: true})

	var got bytes.Buffer
	for _, r := range runs {
		cfg := core.DefaultTraceConfig()
		cfg.DoubleBuffered = !r.singleBuffer
		r.spec.Trace = &cfg
		res, err := Run(r.spec)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if res.Crashed != (r.spec.Faults != nil) {
			t.Fatalf("%s: crashed = %v", r.name, res.Crashed)
		}
		fmt.Fprintf(&got, "%s %d %x\n", r.name, res.Cycles, sha256.Sum256(res.TraceBytes))
	}
	if *update {
		if err := os.WriteFile(traceGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden lists %d runs, test made %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("trace changed (name, cycles, sha256):\n got  %s\n want %s\n"+
				"(compare `pdt-run` output with the previous commit's; -update only for an intended change)",
				gotLines[i], wantLines[i])
		}
	}
}
