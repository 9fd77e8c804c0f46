package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/analyzer/kinds"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/faults"
	"github.com/celltrace/pdt/internal/harness"
)

// makeTrace produces a real trace file for the CLI to chew on.
func makeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.pdt")
	cfg := core.DefaultTraceConfig()
	_, err := harness.Run(harness.Spec{
		Workload:  "julia",
		Params:    map[string]string{"w": "64", "h": "32", "maxiter": "32"},
		Trace:     &cfg,
		TracePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("no args accepted")
	}
	if err := run([]string{"frobnicate", "x.pdt"}, &out); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run([]string{"summary"}, &out); err == nil {
		t.Fatal("missing trace path accepted")
	}
	if err := run([]string{"summary", "/does/not/exist.pdt"}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSummary(t *testing.T) {
	path := makeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"summary", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"workload: julia", "dma-wait", "top events"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, out.String())
		}
	}
}

// TestReportCombined checks the concurrent combined report carries all
// four sections and that each matches its standalone subcommand's output.
func TestReportCombined(t *testing.T) {
	path := makeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"report", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"workload: julia", "interval profile:", "event-free stretches", "critical path:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, out.String())
		}
	}
	// The concurrently-computed sections must render exactly what the
	// standalone subcommands print.
	var prof, gaps, crit bytes.Buffer
	if err := run([]string{"profile", path}, &prof); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"gaps", path}, &gaps); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"critpath", path}, &crit); err != nil {
		t.Fatal(err)
	}
	for name, section := range map[string]string{
		"profile": prof.String(), "gaps": gaps.String(), "critpath": crit.String(),
	} {
		if !strings.Contains(out.String(), section) {
			t.Fatalf("report's %s section differs from the standalone subcommand", name)
		}
	}
}

func TestTimeline(t *testing.T) {
	path := makeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"timeline", "-width", "60", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "legend") {
		t.Fatalf("timeline output:\n%s", out.String())
	}
}

func TestSVGToFile(t *testing.T) {
	path := makeTrace(t)
	svgPath := filepath.Join(t.TempDir(), "o.svg")
	var out bytes.Buffer
	if err := run([]string{"svg", "-o", svgPath, path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(svgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Fatal("not an svg")
	}
}

func TestHTMLToStdout(t *testing.T) {
	path := makeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"html", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "<!DOCTYPE html>") {
		t.Fatal("not html")
	}
}

func TestCSVAndJSON(t *testing.T) {
	path := makeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"csv", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "SPE_PROGRAM_START") {
		t.Fatal("csv missing records")
	}
	out.Reset()
	if err := run([]string{"json", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"utilization"`) {
		t.Fatal("json missing fields")
	}
}

func TestValidateClean(t *testing.T) {
	path := makeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"validate", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "OK") {
		t.Fatalf("validate output:\n%s", out.String())
	}
}

// TestValidateReportsLoadIssues: a trace cut short loads with a
// truncation warning, and validate lists it instead of saying "OK"; a
// warning alone is not a failure.
func TestValidateReportsLoadIssues(t *testing.T) {
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{Workload: "pipeline", Trace: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cut.pdt")
	if err := os.WriteFile(path, res.TraceBytes[:60000], 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"validate", path}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "OK") || !strings.Contains(out.String(), "warn: trace is truncated") {
		t.Fatalf("validate on a cut trace:\n%s", out.String())
	}
}

func TestEventsLimited(t *testing.T) {
	path := makeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"events", "-n", "5", path}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 6 { // 5 events + "... N more"
		t.Fatalf("lines = %d:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[5], "more") {
		t.Fatal("missing continuation marker")
	}
}

func TestSlackAndBW(t *testing.T) {
	path := makeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"slack", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mean slack") {
		t.Fatalf("slack output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"bw", "-n", "5", path}, &out); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(out.String()), "\n")) != 5 {
		t.Fatalf("bw output:\n%s", out.String())
	}
}

// TestSlackOnCutTraceListsSummaryRuns: a trace cut at 70% has anchors
// for runs none of whose events survived. slack lists only the runs with
// events — the runs summary and compensate list — instead of a row of
// zeros on core 0 for each of the others.
func TestSlackOnCutTraceListsSummaryRuns(t *testing.T) {
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{Workload: "pipeline", Trace: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cut.pdt")
	if err := os.WriteFile(path, res.TraceBytes[:len(res.TraceBytes)*7/10], 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := analyzer.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, r := range analyzer.Summarize(tr).Runs {
		want = append(want, fmt.Sprint(r.Run))
	}
	if len(want) == len(tr.Meta.Anchors) {
		t.Fatalf("every one of the %d runs kept events: the cut tests nothing", len(want))
	}
	var out bytes.Buffer
	if err := run([]string{"slack", path}, &out); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		got = append(got, strings.Fields(line)[0])
	}
	if !slices.Equal(got, want) {
		t.Fatalf("slack lists runs %v, summary %v:\n%s", got, want, out.String())
	}
}

func TestProfileIntervalsCompensate(t *testing.T) {
	path := makeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"profile", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "total ticks") {
		t.Fatalf("profile output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"intervals", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "run,core,state") {
		t.Fatalf("intervals output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"compensate", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "corrected") {
		t.Fatalf("compensate output:\n%s", out.String())
	}
}

func TestCritpathAndGaps(t *testing.T) {
	path := makeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"critpath", "-n", "3", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "critical path:") {
		t.Fatalf("critpath output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"gaps", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "event-free") {
		t.Fatalf("gaps output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"gaps", "-min", "1", "-n", "2", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), ">= 1 ticks") {
		t.Fatalf("gaps -min output:\n%s", out.String())
	}
}

// TestKindJSONMatchesService: for every registered kind, `pdt-ta <kind>
// -json` prints exactly the artifact the cache renders for the same file
// — the bytes pdt-tad serves from POST /v1/<kind> — and it is JSON.
func TestKindJSONMatchesService(t *testing.T) {
	path := makeTrace(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cache.New(0, 0).Load(context.Background(), data, analyzer.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kinds.All {
		var out bytes.Buffer
		if err := run([]string{k.Name, "-json", path}, &out); err != nil {
			t.Fatalf("%s -json: %v", k.Name, err)
		}
		if !json.Valid(out.Bytes()) {
			t.Errorf("%s -json did not print JSON:\n%s", k.Name, out.Bytes())
		}
		want, err := cache.Render(k.Name, h)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s -json differs from cache.Render(%q)", k.Name, k.Name)
		}
	}
}

func TestCompare(t *testing.T) {
	a := makeTrace(t)
	b := makeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"compare", a, b}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "speedup") {
		t.Fatalf("compare output:\n%s", out.String())
	}
	if err := run([]string{"compare", a}, &out); err == nil {
		t.Fatal("compare with one file accepted")
	}
}

func TestCorruptTraceRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.pdt")
	if err := os.WriteFile(path, []byte("this is not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"summary", path}, &out); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestRecordFramingDamagePointsAtDoctor: a record that does not frame is
// damage, so summary points at the doctor instead of printing the raw
// decode error alone.
func TestRecordFramingDamagePointsAtDoctor(t *testing.T) {
	kill, err := faults.Parse("kill:250000")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{Workload: "pipeline", Trace: &cfg, Faults: kill})
	if err != nil {
		t.Fatal(err)
	}
	data := res.TraceBytes // killed: no footer, so no file CRC to fail first
	f, err := traceio.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range f.Chunks {
		if c.Core < event.CorePPEBase {
			c.Data[1] = 0xFE // the first record's event ID, in data itself
			break
		}
	}
	path := filepath.Join(t.TempDir(), "bad.pdt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"summary", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "pdt-ta doctor") {
		t.Fatalf("want an error naming pdt-ta doctor, got %v", err)
	}
}

func TestTags(t *testing.T) {
	path := makeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"tags", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "bytes") {
		t.Fatalf("tags output:\n%s", out.String())
	}
}

// TestTimeoutFlag: a microscopic -timeout aborts the analysis with
// context.DeadlineExceeded, the error main maps to exit status 3.
func TestTimeoutFlag(t *testing.T) {
	path := makeTrace(t)
	var out bytes.Buffer
	err := run([]string{"summary", "-timeout", "1ns", path}, &out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	// doctor shares the deadline plumbing through the salvage path.
	err = run([]string{"doctor", "-timeout", "1ns", path}, &out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("doctor: want context.DeadlineExceeded, got %v", err)
	}
}
