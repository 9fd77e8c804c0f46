package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/analyzer/kinds"
)

// TestFollowGrowingTrace drip-feeds a sealed trace into a file while
// `<kind> -follow` tails it, for every kind the stream folds: follow
// must stop on its own when the footer lands and print the same report
// the batch path prints, as text and with -json.
func TestFollowGrowingTrace(t *testing.T) {
	src := makeTrace(t)
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}

	var cases [][]string
	for _, k := range kinds.All {
		if k.FromStream != nil {
			cases = append(cases, []string{k.Name}, []string{k.Name, "-json"})
		}
	}
	if len(cases) < 4 {
		t.Fatalf("%d follow cases, want summary and profile as text and JSON", len(cases))
	}
	for _, flags := range cases {
		live := filepath.Join(t.TempDir(), "live.pdt")
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := os.Create(live)
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			const step = 4 << 10
			for off := 0; off < len(data); off += step {
				end := off + step
				if end > len(data) {
					end = len(data)
				}
				if _, err := f.Write(data[off:end]); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()

		var followed bytes.Buffer
		args := append(append([]string{}, flags...), "-follow", "-poll", "5ms", "-timeout", "30s", live)
		if err := run(args, &followed); err != nil {
			t.Fatalf("follow %v: %v", flags, err)
		}
		wg.Wait()

		var batch bytes.Buffer
		if err := run(append(append([]string{}, flags...), src), &batch); err != nil {
			t.Fatal(err)
		}
		if followed.String() != batch.String() {
			t.Errorf("follow %v report differs from batch:\nfollow:\n%s\nbatch:\n%s", flags, &followed, &batch)
		}
	}
}

// TestFollowIdleTruncated covers the crashed-writer path: the file stops
// growing before the footer, so -idle makes follow report what survived.
func TestFollowIdleTruncated(t *testing.T) {
	src := makeTrace(t)
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dead := filepath.Join(t.TempDir(), "dead.pdt")
	if err := os.WriteFile(dead, data[:len(data)*3/5], 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"summary", "-follow", "-poll", "5ms", "-idle", "50ms", "-timeout", "30s", dead}, &out); err != nil {
		t.Fatalf("follow idle: %v", err)
	}
	if !strings.Contains(out.String(), "workload: julia") {
		t.Errorf("truncated follow report missing summary:\n%s", out.String())
	}
}

// TestFollowWrongSubcommand rejects -follow outside the kinds the stream
// folds: a subcommand that is no kind, and a batch-only kind.
func TestFollowWrongSubcommand(t *testing.T) {
	for _, cmd := range []string{"timeline", "gaps"} {
		var out bytes.Buffer
		if err := run([]string{cmd, "-follow", "x.pdt"}, &out); err == nil {
			t.Errorf("-follow accepted for %s", cmd)
		}
	}
}
