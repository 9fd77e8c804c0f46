package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/analyzer/cache"
)

// stub returns a test server that answers every POST with the given
// status after an optional delay, counting requests.
func stub(t *testing.T, status int, delay time.Duration, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		w.WriteHeader(status)
		w.Write([]byte(`{"ok":true}`))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// decode parses the run summary printed to out.
func decode(t *testing.T, out *bytes.Buffer) summary {
	t.Helper()
	var s summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("summary not JSON: %v\n%s", err, out.Bytes())
	}
	return s
}

func TestRunHappyPath(t *testing.T) {
	var hits atomic.Int64
	ts := stub(t, http.StatusOK, 0, &hits)

	var out bytes.Buffer
	err := run([]string{
		"-targets", ts.URL + "/", // trailing slash must be tolerated
		"-workloads", "julia",
		"-requests", "20",
		"-concurrency", "4",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.Bytes())
	}
	if got := hits.Load(); got != 20 {
		t.Fatalf("stub saw %d requests, want 20", got)
	}
	s := decode(t, &out)
	if s.OK != 20 || s.Failures != 0 || s.Shed != 0 {
		t.Fatalf("summary = %+v, want 20 ok", s)
	}
	if s.P99ms <= 0 || s.P50ms > s.P99ms {
		t.Fatalf("implausible percentiles: p50=%v p99=%v", s.P50ms, s.P99ms)
	}
}

func TestRunFailsOn5xx(t *testing.T) {
	var hits atomic.Int64
	ts := stub(t, http.StatusInternalServerError, 0, &hits)

	var out bytes.Buffer
	err := run([]string{"-targets", ts.URL, "-workloads", "julia",
		"-requests", "8", "-concurrency", "2"}, &out)
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("err = %v, want request failures", err)
	}
	s := decode(t, &out)
	if s.Failures != 8 {
		t.Fatalf("failures = %d, want 8", s.Failures)
	}
	if len(s.Errors) == 0 || !strings.Contains(s.Errors[0], "status 500") {
		t.Fatalf("errors sample = %v, want a status 500 line", s.Errors)
	}
}

func TestRunShedIsNotFailure(t *testing.T) {
	// Alternate 200/429: shedding under load is the daemon behaving, so
	// the run passes as long as something got through.
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 0 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{"-targets", ts.URL, "-workloads", "julia",
		"-requests", "10", "-concurrency", "1"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.Bytes())
	}
	s := decode(t, &out)
	if s.Shed != 5 || s.OK != 5 {
		t.Fatalf("summary = %+v, want 5 ok / 5 shed", s)
	}
}

func TestRunAllShedFails(t *testing.T) {
	var hits atomic.Int64
	ts := stub(t, http.StatusTooManyRequests, 0, &hits)

	var out bytes.Buffer
	err := run([]string{"-targets", ts.URL, "-workloads", "julia",
		"-requests", "4", "-concurrency", "2"}, &out)
	if err == nil || !strings.Contains(err.Error(), "shed") {
		t.Fatalf("err = %v, want all-shed failure", err)
	}
}

func TestRunP99BudgetGate(t *testing.T) {
	var hits atomic.Int64
	ts := stub(t, http.StatusOK, 25*time.Millisecond, &hits)

	var out bytes.Buffer
	err := run([]string{"-targets", ts.URL, "-workloads", "julia",
		"-requests", "6", "-concurrency", "2", "-p99-budget", "1ms"}, &out)
	if err == nil || !strings.Contains(err.Error(), "over budget") {
		t.Fatalf("err = %v, want p99 budget violation", err)
	}
	s := decode(t, &out)
	if s.P99BudgetMs != 1 {
		t.Fatalf("budget in summary = %v, want 1", s.P99BudgetMs)
	}
	if s.P99ms < 20 {
		t.Fatalf("p99 = %vms, want >= the stub delay", s.P99ms)
	}
}

func TestRunSpreadsAcrossTargets(t *testing.T) {
	var a, b atomic.Int64
	tsA := stub(t, http.StatusOK, 0, &a)
	tsB := stub(t, http.StatusOK, 0, &b)

	var out bytes.Buffer
	err := run([]string{"-targets", tsA.URL + "," + tsB.URL,
		"-workloads", "julia", "-requests", "10", "-concurrency", "2"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if a.Load() != 5 || b.Load() != 5 {
		t.Fatalf("split = %d/%d, want 5/5", a.Load(), b.Load())
	}
}

func TestRunFlagValidation(t *testing.T) {
	cases := [][]string{
		{},                        // no targets
		{"-targets", "not-a-url"}, // scheme missing
		{"-targets", "ftp://h"},   // wrong scheme
		{"-targets", "http://h", "-workloads", "nope"}, // unknown workload
		{"-targets", "http://h", "-kinds", "diff"},     // diff not replayable
		{"-targets", "http://h", "-requests", "0"},     // empty run
		{"-targets", "http://h", "-concurrency", "-1"}, // no workers
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted, want error", args)
		}
	}
}

// TestRunAcceptsEveryAnalysisKind: every kind the daemon serves is a
// valid -kinds value and is replayed against its own /v1/<kind> route.
func TestRunAcceptsEveryAnalysisKind(t *testing.T) {
	var mu sync.Mutex
	paths := map[string]int{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths[r.URL.Path]++
		mu.Unlock()
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{"-targets", ts.URL, "-workloads", "julia",
		"-kinds", strings.Join(cache.AnalysisKinds, ","),
		"-requests", fmt.Sprint(2 * len(cache.AnalysisKinds)), "-concurrency", "2"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.Bytes())
	}
	for _, kind := range cache.AnalysisKinds {
		if paths["/v1/"+kind] != 2 {
			t.Errorf("/v1/%s saw %d requests, want 2 (all paths: %v)", kind, paths["/v1/"+kind], paths)
		}
	}
}

func TestSplitWorkloadsAllCoversSuite(t *testing.T) {
	names, err := splitWorkloads("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 11 {
		t.Fatalf("workload suite has %d entries, want 11", len(names))
	}
	if !sortedStrings(names) {
		t.Fatalf("names not sorted: %v", names)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

func TestPercentile(t *testing.T) {
	d := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(d, 0.50); got != 5 {
		t.Fatalf("p50 = %d, want 5", got)
	}
	if got := percentile(d, 0.99); got != 9 {
		t.Fatalf("p99 = %d, want 9", got)
	}
	if got := percentile(d, 1.0); got != 10 {
		t.Fatalf("p100 = %d, want 10", got)
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Fatalf("empty p99 = %d, want 0", got)
	}
}
