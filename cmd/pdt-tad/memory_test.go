package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"testing"
)

func TestMemoryLimitDecision(t *testing.T) {
	def := defaultConfig()
	cases := []struct {
		name       string
		mut        func(*config)
		gomemlimit string
		limit      int64 // of an idle daemon; 0 = none set
		source     string
	}{
		{name: "default", limit: 448 << 20, source: "cache-bytes"},
		{name: "cache-bytes 1GiB", mut: func(c *config) { c.cacheBytes = 1 << 30 }, limit: 1792 << 20, source: "cache-bytes"},
		{name: "cache-bytes 0", mut: func(c *config) { c.cacheBytes = 0 }, source: "none"},
		{name: "cache-entries only", mut: func(c *config) { c.cacheBytes, c.cacheEntries = 0, 64 }, source: "none"},
		{name: "cache off", mut: func(c *config) { c.cacheBytes, c.cacheEntries = 0, 0 }, source: "none"},
		{name: "7/4 overflows", mut: func(c *config) { c.cacheBytes = math.MaxInt64 / 2 }, source: "none"},
		{name: "GOMEMLIMIT set", gomemlimit: "1GiB", source: "GOMEMLIMIT"},
		{name: "GOMEMLIMIT off", gomemlimit: "off", source: "GOMEMLIMIT"},
		{name: "GOMEMLIMIT beside cache-bytes 0", mut: func(c *config) { c.cacheBytes = 0 }, gomemlimit: "300MiB", source: "GOMEMLIMIT"},
	}
	for _, tc := range cases {
		cfg := def
		if tc.mut != nil {
			tc.mut(&cfg)
		}
		budget, source := memoryLimit(cfg, tc.gomemlimit)
		var limit int64
		if budget > 0 {
			limit = limitFor(budget, 0)
		}
		if limit != tc.limit || source != tc.source {
			t.Errorf("%s: limit %d, source %q; want %d, %q", tc.name, limit, source, tc.limit, tc.source)
		}
	}
}

// TestLimitForInflight: the headroom above the budget is 3/4 of it until
// the images being analysed claim more — so the default daemon's 448 MiB
// holds for -max-concurrent 3 MB uploads, and four near -max-body ones
// are not squeezed under a limit their own live heap exceeds.
func TestLimitForInflight(t *testing.T) {
	def := defaultConfig()
	cases := []struct {
		name     string
		budget   int64
		inflight int64
		want     int64
	}{
		{"idle", 256 << 20, 0, 448 << 20},
		{"four 3 MB bodies", 256 << 20, 4 * 3_000_000, 448 << 20},
		{"24 MiB in flight", 256 << 20, 24 << 20, 448 << 20},
		{"max-concurrent at max-body", def.cacheBytes, int64(def.maxConcurrent) * def.maxBody,
			def.cacheBytes + inflightHeadroom*int64(def.maxConcurrent)*def.maxBody},
		{"overflow", 256 << 20, math.MaxInt64 / 4, math.MaxInt64},
	}
	for _, tc := range cases {
		if got := limitFor(tc.budget, tc.inflight); got != tc.want {
			t.Errorf("%s: limitFor(%d, %d) = %d, want %d", tc.name, tc.budget, tc.inflight, got, tc.want)
		}
	}
}

// TestMemLimitFollowsHolds: holds raise the runtime's limit and their
// releases lower it; stop puts back the caller's, and nothing a late
// release does moves it again.
func TestMemLimitFollowsHolds(t *testing.T) {
	const mine = 3 << 30
	prev := debug.SetMemoryLimit(mine)
	defer debug.SetMemoryLimit(prev)

	const budget = 64 << 20
	m, stop := startMemLimit(budget)
	if got := runtimeMemoryLimit(); got != limitFor(budget, 0) {
		t.Fatalf("idle limit %d, want %d", got, limitFor(budget, 0))
	}
	a := m.hold(40 << 20)
	b := m.hold(10 << 20)
	if got, want := runtimeMemoryLimit(), limitFor(budget, 50<<20); got != want || want <= limitFor(budget, 0) {
		t.Fatalf("limit with 50 MiB in flight %d, want %d", got, want)
	}
	a()
	if got, want := runtimeMemoryLimit(), limitFor(budget, 10<<20); got != want {
		t.Fatalf("limit after one release %d, want %d", got, want)
	}
	stop()
	b()
	if got := runtimeMemoryLimit(); got != mine {
		t.Fatalf("limit after stop %d, want the caller's %d", got, mine)
	}

	var none *memLimit // no budget: holds are free and set nothing
	none.hold(1 << 30)()
	if got := runtimeMemoryLimit(); got != mine {
		t.Fatalf("a nil manager moved the limit to %d", got)
	}
}

// TestAnalysisHoldsItsBody: a request counts toward the headroom at its
// declared length from admission until its handler returns.
func TestAnalysisHoldsItsBody(t *testing.T) {
	prev := debug.SetMemoryLimit(-1)
	defer debug.SetMemoryLimit(prev)
	s, ts := testServer(t, nil)
	body := smallTrace(t)
	budget := int64(len(body)) // 3/4 of it is less than inflightHeadroom × body
	mem, stop := startMemLimit(budget)
	defer stop()
	s.mem = mem
	var during int64
	s.analysisHook = func() { during = runtimeMemoryLimit() }

	if resp, out := post(t, ts.URL+"/v1/summary", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	ts.Close() // waits for the handler's deferred release
	if want := limitFor(budget, int64(len(body))); during != want {
		t.Errorf("limit during the analysis %d, want %d", during, want)
	}
	if got, want := runtimeMemoryLimit(), limitFor(budget, 0); got != want {
		t.Errorf("limit after the response %d, want the idle %d", got, want)
	}
}

// TestRunRestoresMemoryLimit: run sets a process-wide limit and must put
// back the one it found, so an in-process caller keeps its own.
func TestRunRestoresMemoryLimit(t *testing.T) {
	t.Setenv("GOMEMLIMIT", "")
	const mine = 3 << 30
	prev := debug.SetMemoryLimit(mine)
	defer debug.SetMemoryLimit(prev)
	_, ts := testServer(t, nil)
	if err := run([]string{"-addr", ts.Listener.Addr().String()}, io.Discard, io.Discard, nil); err == nil {
		t.Fatal("run() on an occupied port should fail")
	}
	if got := debug.SetMemoryLimit(-1); got != mine {
		t.Fatalf("memory limit %d after run, want the caller's %d", got, mine)
	}
}

func TestStatsReportsMemory(t *testing.T) {
	_, ts := testServer(t, nil)
	runtime.GC() // the live heap is what the last collection found
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Memory *memoryStats `json:"memory"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	m := out.Memory
	if m == nil {
		t.Fatal("stats: no memory object")
	}
	// A server built outside run has had no limit applied on its behalf.
	if m.Source != "none" || m.LimitBytes != runtimeMemoryLimit() || m.HeapLiveBytes == 0 {
		t.Fatalf("stats memory = %+v, want source none, the runtime's limit %d and a live heap",
			*m, runtimeMemoryLimit())
	}
}
