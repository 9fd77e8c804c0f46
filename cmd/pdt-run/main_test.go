package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/workloads"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"matmul", "julia", "pipeline", "fft", "histogram", "stream", "synthetic"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list missing %s:\n%s", want, out.String())
		}
	}
}

// TestListIsStable: -list prints the same bytes every time, and each
// workload's block names each of its defaults exactly once.
func TestListIsStable(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-list"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two -list calls differ:\n%s\n---\n%s", a.String(), b.String())
	}
	blocks := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(a.String(), "\n") {
		if line != "" && line[0] != ' ' {
			name = strings.Fields(line)[0]
		}
		blocks[name] += line
	}
	for _, n := range workloads.Names() {
		w, _ := workloads.New(n)
		for k, v := range w.Params() {
			if c := strings.Count(blocks[n], "    "+k+"="+v+" (default)\n"); c != 1 {
				t.Fatalf("%s: default %s=%s printed %d times:\n%s", n, k, v, c, blocks[n])
			}
		}
		if c := strings.Count(blocks[n], "(default)"); c != len(w.Params()) {
			t.Fatalf("%s: %d defaults printed, want %d", n, c, len(w.Params()))
		}
	}
}

func TestMissingWorkload(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("missing -workload accepted")
	}
}

func TestUnknownGroup(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-workload", "julia", "-groups", "bogus"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown group") {
		t.Fatalf("err = %v", err)
	}
}

func TestBadParamSyntax(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workload", "julia", "-param", "noequals"}, &out); err == nil {
		t.Fatal("bad -param accepted")
	}
}

func TestRunTracedWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.pdt")
	var out bytes.Buffer
	err := run([]string{
		"-workload", "julia",
		"-param", "w=64", "-param", "h=32", "-param", "maxiter=32",
		"-o", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "result verified") {
		t.Fatalf("output: %s", out.String())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing: %v", err)
	}
}

func TestRunUntraced(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-workload", "histogram", "-param", "size=65536", "-untraced",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "trace:") {
		t.Fatal("untraced run reported a trace")
	}
}

func TestRunWithGroupsAndBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.pdt")
	var out bytes.Buffer
	err := run([]string{
		"-workload", "julia",
		"-param", "w=64", "-param", "h=32", "-param", "maxiter=32",
		"-groups", "lifecycle,mfc", "-buffer", "4", "-singlebuffer",
		"-spes", "2",
		"-o", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "records") {
		t.Fatalf("output: %s", out.String())
	}
}

func TestRunWithConfigFile(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "pdt.xml")
	xml := `<pdt><buffer spe="4096" doubleBuffered="true" mainPerSPE="1048576"/>
<groups><group name="mfc" enabled="true"/><group name="lifecycle" enabled="true"/></groups></pdt>`
	if err := os.WriteFile(cfgPath, []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{
		"-workload", "histogram", "-param", "size=65536",
		"-config", cfgPath, "-o", filepath.Join(dir, "t.pdt"),
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParamListString(t *testing.T) {
	p := paramList{"a": "1"}
	if p.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRunWithWindow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.pdt")
	var out bytes.Buffer
	err := run([]string{
		"-workload", "julia",
		"-param", "w=64", "-param", "h=32", "-param", "maxiter=32",
		"-windowstart", "10000", "-windowend", "200000",
		"-wrap",
		"-o", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "records") {
		t.Fatalf("output: %s", out.String())
	}
}

// TestTimeoutFlag: a microscopic -timeout aborts the simulation with
// context.DeadlineExceeded, the error main maps to exit status 3.
func TestTimeoutFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-workload", "julia",
		"-param", "w=64", "-param", "h=32", "-param", "maxiter=32",
		"-o", filepath.Join(t.TempDir(), "t.pdt"),
		"-timeout", "1ns",
	}, &out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}
