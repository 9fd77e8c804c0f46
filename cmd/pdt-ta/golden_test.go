package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/harness"
	"github.com/celltrace/pdt/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden CLI output files")

// goldenWorkloadTrace runs the fixed golden workload (julia, small and
// deterministic) with the given event-group mask and writes the trace
// where the CLI can read it.
func goldenWorkloadTrace(t *testing.T, groups event.Group) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.pdt")
	cfg := core.DefaultTraceConfig()
	cfg.Groups = groups
	_, err := harness.Run(harness.Spec{
		Workload:  "julia",
		Params:    map[string]string{"w": "64", "h": "32", "maxiter": "32", "mode": "dynamic"},
		Trace:     &cfg,
		TracePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// checkGolden compares CLI output to testdata/<name>, rewriting the file
// under -update-golden (review the diff before committing).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s rewritten (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s output drifted from %s — if the change is intentional, "+
			"re-run with -update-golden and review the diff.\n--- got ---\n%s",
			t.Name(), path, got)
	}
}

// TestGoldenReport pins the combined `pdt-ta report` text byte-for-byte:
// any drift in the summary, profile, gap, or critical-path renderers (or
// in the simulator's schedule) shows up here.
func TestGoldenReport(t *testing.T) {
	path := goldenWorkloadTrace(t, event.GroupAll)
	var out bytes.Buffer
	if err := run([]string{"report", path}, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.golden", out.Bytes())
}

// goldenPipelineTrace runs the pipeline workload (iterative: 8 blocks
// through 8 stages), which is what the cycle goldens need — julia's
// dynamic row scheduling has no per-run iteration structure.
func goldenPipelineTrace(t *testing.T, groups event.Group) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.pdt")
	cfg := core.DefaultTraceConfig()
	cfg.Groups = groups
	_, err := harness.Run(harness.Spec{
		Workload:  "pipeline",
		Params:    map[string]string{"blocks": "8", "blockbytes": "1024"},
		Trace:     &cfg,
		TracePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGoldenCycles pins `pdt-ta cycles` text and JSON byte-for-byte on
// the pipeline workload (every stage detects blocks=8 cycles).
func TestGoldenCycles(t *testing.T) {
	path := goldenPipelineTrace(t, event.GroupAll)

	var text bytes.Buffer
	if err := run([]string{"cycles", path}, &text); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cycles.golden", text.Bytes())

	var js bytes.Buffer
	if err := run([]string{"cycles", "-json", path}, &js); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cycles.json.golden", js.Bytes())
}

// TestGoldenDiffAlign pins `pdt-ta diff -mode align` — the per-cycle
// section rides on the pipeline reduced-vs-full diff, where signature
// drift between the group configurations exercises real edits.
func TestGoldenDiffAlign(t *testing.T) {
	reduced := goldenPipelineTrace(t, event.GroupLifecycle|event.GroupMFC)
	full := goldenPipelineTrace(t, event.GroupAll)

	var text bytes.Buffer
	if err := run([]string{"diff", "-mode", "align", reduced, full}, &text); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "diff.align.golden", text.Bytes())

	var js bytes.Buffer
	if err := run([]string{"diff", "-mode", "align", "-json", reduced, full}, &js); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "diff.align.json.golden", js.Bytes())
}

// TestGoldenDiff pins `pdt-ta diff` for the reduced-vs-full comparison
// the overhead experiments use, in both text and JSON form.
func TestGoldenDiff(t *testing.T) {
	reduced := goldenWorkloadTrace(t, event.GroupLifecycle|event.GroupMFC)
	full := goldenWorkloadTrace(t, event.GroupAll)

	var text bytes.Buffer
	if err := run([]string{"diff", reduced, full}, &text); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "diff.golden", text.Bytes())

	var js bytes.Buffer
	if err := run([]string{"diff", "-json", reduced, full}, &js); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "diff.json.golden", js.Bytes())
}

// goldenTaskfarmTrace runs taskfarm at its small size: its farmer runs
// on a spawned PPE thread, so the interval views draw two PPE lanes.
func goldenTaskfarmTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tf.pdt")
	cfg := core.DefaultTraceConfig()
	_, err := harness.Run(harness.Spec{
		Workload:  "taskfarm",
		Params:    workloads.Small("taskfarm"),
		Trace:     &cfg,
		TracePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGoldenIntervalViews pins the views drawn from the state intervals:
// `timeline` at two widths, `intervals` and `bw` byte for byte, and
// `svg` and `html` — hundreds of kilobytes each — by size and SHA-256 in
// one table, views.sha256.golden.
func TestGoldenIntervalViews(t *testing.T) {
	traces := []struct{ name, path string }{
		{"julia", goldenWorkloadTrace(t, event.GroupAll)},
		{"taskfarm", goldenTaskfarmTrace(t)},
	}
	var digests bytes.Buffer
	for _, tc := range traces {
		for _, c := range []struct {
			golden string
			args   []string
		}{
			{"timeline", []string{"timeline"}},
			{"timeline37", []string{"timeline", "-width", "37"}},
			{"intervals", []string{"intervals"}},
			{"bw", []string{"bw"}},
			{"", []string{"svg"}},
			{"", []string{"svg", "-px", "333"}},
			{"", []string{"html"}},
		} {
			var out bytes.Buffer
			if err := run(append(c.args, tc.path), &out); err != nil {
				t.Fatalf("%s %v: %v", tc.name, c.args, err)
			}
			if c.golden != "" {
				checkGolden(t, "views."+tc.name+"."+c.golden+".golden", out.Bytes())
				continue
			}
			fmt.Fprintf(&digests, "%s %s %d %x\n",
				tc.name, strings.Join(c.args, " "), out.Len(), sha256.Sum256(out.Bytes()))
		}
	}
	checkGolden(t, "views.sha256.golden", digests.Bytes())
}
