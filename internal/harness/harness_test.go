package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/celltrace/pdt/internal/core"
)

func TestRunUntraced(t *testing.T) {
	res, err := Run(Spec{Workload: "julia", Params: map[string]string{"w": "64", "h": "32", "maxiter": "32"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Trace != nil || res.TraceBytes != nil {
		t.Fatalf("untraced result wrong: %+v", res)
	}
}

func TestRunTracedWithFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.pdt")
	cfg := core.DefaultTraceConfig()
	res, err := Run(Spec{
		Workload:  "histogram",
		Params:    map[string]string{"size": "65536"},
		Trace:     &cfg,
		TracePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Stats.SPERecords == 0 {
		t.Fatal("traced run missing trace")
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, res.TraceBytes) {
		t.Fatal("file and in-memory trace differ")
	}
	if res.Trace.Meta.Workload != "histogram" {
		t.Fatalf("meta workload = %q", res.Trace.Meta.Workload)
	}
	// Params recorded for reproducibility.
	found := false
	for _, p := range res.Trace.Meta.Params {
		if p.Name == "size" && p.Value == "65536" {
			found = true
		}
	}
	if !found {
		t.Fatalf("params not recorded: %+v", res.Trace.Meta.Params)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Spec{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Run(Spec{Workload: "matmul", Params: map[string]string{"n": "billion"}}); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestRunNumSPEsOverride(t *testing.T) {
	res, err := Run(Spec{
		Workload: "julia",
		Params:   map[string]string{"w": "64", "h": "32", "maxiter": "32"},
		NumSPEs:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.NumSPEs() != 2 {
		t.Fatalf("SPEs = %d", res.Machine.NumSPEs())
	}
}

func TestOverhead(t *testing.T) {
	if v := Overhead(100, 110); v != 10 {
		t.Fatalf("Overhead = %v", v)
	}
	if v := Overhead(0, 10); v != 0 {
		t.Fatalf("Overhead zero-base = %v", v)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 15 {
		t.Fatalf("experiments = %d", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("%s incomplete", e.ID)
		}
	}
	if _, ok := ByID("E5"); !ok {
		t.Fatal("ByID(E5) failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID(E99) succeeded")
	}
}
