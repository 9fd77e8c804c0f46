//go:build smoke

package main

// End-to-end memory gate for `make smoke-tad`: the real pdt-tad binary
// with default flags, a stream of fresh (never seen) 3 MB trace bodies
// across every served kind, two callers at a time — the benchmark's
// serve_cold shape, with only large traces. Every reply must be the bytes
// an in-process render gives, and the daemon's peak RSS must stay near
// its 256 MiB cache budget: the cache weighs what it keeps and the
// runtime's soft limit follows -cache-bytes.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/analyzer/kinds"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/harness"
)

// coldPeakRSSMB bounds the daemon's VmHWM after the cold stream. Without
// the weights and the limit it reads about 640.
const coldPeakRSSMB = 500

func TestSmokeTADColdRSS(t *testing.T) {
	const requests, callers = 100, 2
	bin := buildTAD(t)
	f, want := largeSmokeTrace(t)
	cmd, base, logBuf := startDefaultTAD(t, bin)
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	for _, e := range fanOut(requests, callers, func(i int) error {
		kind := kinds.All[i%len(kinds.All)].Name
		if err := coldRequest(client, base, kind, freshSmokeBody(f, i), want[kind]); err != nil {
			return fmt.Errorf("%s: %w", kind, err)
		}
		return nil
	}) {
		t.Error(e)
	}

	hwm, err := statusKB(cmd.Process.Pid, "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Cache struct {
			Bytes     int64  `json:"bytes"`
			Evictions uint64 `json:"evictions"`
		} `json:"cache"`
		Memory memoryStats `json:"memory"`
	}
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d cold requests in %v: VmHWM %.0f MB, cache %d bytes after %d evictions, memory %+v",
		requests, time.Since(start).Round(time.Millisecond), float64(hwm)/1024,
		stats.Cache.Bytes, stats.Cache.Evictions, stats.Memory)
	if stats.Memory.Source != "cache-bytes" || stats.Memory.LimitBytes != 448<<20 {
		t.Errorf("stats memory %+v, want the 448 MiB limit derived from -cache-bytes", stats.Memory)
	}
	if stats.Cache.Evictions == 0 {
		t.Error("the stream never filled the cache; the gate measures nothing")
	}
	if mb := hwm / 1024; mb > coldPeakRSSMB {
		t.Errorf("daemon peak RSS %d MB, over %d MB", mb, coldPeakRSSMB)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("pdt-tad exited with error after drain: %v", err)
	}
	if log := logBuf.String(); !strings.Contains(log, `"memory_limit":469762048,"memory_limit_source":"cache-bytes"`) {
		t.Errorf("listening line does not carry the derived limit:\n%s", log[:min(len(log), 2000)])
	}
}

// buildTAD compiles the daemon in this directory to a temporary binary.
func buildTAD(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pdt-tad")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building pdt-tad: %v", err)
	}
	return bin
}

// largeSmokeTrace is the benchmark's large trace (synthetic, 10,000
// events, 3 MB), parsed, with every kind's reply as an in-process render
// gives it.
func largeSmokeTrace(t *testing.T) (*traceio.File, map[string][]byte) {
	t.Helper()
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic",
		Params:   map[string]string{"events": "10000", "gap": "100"},
		Trace:    &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := traceio.Parse(res.TraceBytes)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cache.New(0, 0).Load(context.Background(), res.TraceBytes, analyzer.DefaultServiceLimits())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, k := range kinds.All {
		if want[k.Name], err = cache.Render(k.Name, h); err != nil {
			t.Fatal(err)
		}
	}
	return f, want
}

// startDefaultTAD starts bin with default flags and returns the process,
// its base URL and its log. An operator's GOMEMLIMIT would take
// precedence over the derived limit, so the daemon does not inherit one.
// The process is killed when the test ends.
func startDefaultTAD(t *testing.T, bin string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMEMLIMIT=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	logBuf := &bytes.Buffer{}
	cmd.Stderr = logBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	lines := bufio.NewScanner(stdout)
	if !lines.Scan() {
		t.Fatal("no startup line on stdout")
	}
	base := "http://" + strings.TrimPrefix(lines.Text(), "pdt-tad: listening on ")
	go io.Copy(io.Discard, stdout)
	return cmd, base, logBuf
}

// fanOut runs do(0) ... do(requests-1) on callers goroutines and returns
// each failure as "request i: err".
func fanOut(requests, callers int, do func(i int) error) []string {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []string
		next = make(chan int)
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := do(i); err != nil {
					mu.Lock()
					errs = append(errs, fmt.Sprintf("request %d: %v", i, err))
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < requests; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errs
}

// coldRequest posts one body and checks the reply byte for byte.
func coldRequest(client *http.Client, base, kind string, body, want []byte) error {
	resp, err := client.Post(base+"/v1/"+kind, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("reply differs from the in-process render (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// freshSmokeBody re-serialises the trace with one extra metadata
// parameter: the same events under a content key the daemon has not seen.
func freshSmokeBody(f *traceio.File, nonce int) []byte {
	var buf bytes.Buffer
	w, err := traceio.NewWriter(&buf, f.Header)
	if err != nil {
		panic(err)
	}
	meta := f.Meta
	meta.Params = append(append([]traceio.Param(nil), meta.Params...),
		traceio.Param{Name: "smoke.nonce", Value: strconv.Itoa(nonce)})
	if err := w.WriteMeta(&meta); err != nil {
		panic(err)
	}
	for _, c := range f.Chunks {
		if err := w.WriteChunk(c); err != nil {
			panic(err)
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// statusKB reads one kB-valued line (VmHWM, VmRSS) of /proc/<pid>/status.
func statusKB(pid int, key string) (int64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			if f := strings.Fields(rest); len(f) == 2 && f[1] == "kB" {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s line", pid, key)
}
