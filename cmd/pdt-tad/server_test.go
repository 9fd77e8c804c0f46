package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/harness"
)

// traceBytes produces a real serialized trace for the service to chew on.
func traceBytes(t *testing.T, params map[string]string) []byte {
	t.Helper()
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "julia",
		Params:   params,
		Trace:    &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.TraceBytes
}

func smallTrace(t *testing.T) []byte {
	return traceBytes(t, map[string]string{"w": "64", "h": "32", "maxiter": "32"})
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, nil))
}

func testServer(t *testing.T, mut func(*config)) (*server, *httptest.Server) {
	t.Helper()
	cfg := defaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	s := newServer(cfg, quietLogger())
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// postCode is post for goroutines: no t.Fatal, -1 on transport error.
func postCode(url string, body []byte) int {
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

func TestEndpointsGolden(t *testing.T) {
	_, ts := testServer(t, nil)
	trace := smallTrace(t)

	resp, body := post(t, ts.URL+"/v1/summary", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary: status %d: %s", resp.StatusCode, body)
	}
	var sum map[string]any
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatalf("summary: bad JSON: %v", err)
	}
	if sum["workload"] != "julia" {
		t.Fatalf("summary: workload = %v, want julia", sum["workload"])
	}

	resp, body = post(t, ts.URL+"/v1/profile", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile: status %d: %s", resp.StatusCode, body)
	}
	var prof struct {
		Intervals []map[string]any `json:"intervals"`
	}
	if err := json.Unmarshal(body, &prof); err != nil {
		t.Fatalf("profile: bad JSON: %v", err)
	}
	if len(prof.Intervals) == 0 {
		t.Fatal("profile: no intervals")
	}

	resp, body = post(t, ts.URL+"/v1/doctor", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("doctor: status %d: %s", resp.StatusCode, body)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("doctor: bad JSON: %v", err)
	}
	if doc["verdict"] != "CLEAN" || doc["recoverable"] != true {
		t.Fatalf("doctor on clean trace: %s", body)
	}
}

func TestCorruptTrace(t *testing.T) {
	_, ts := testServer(t, nil)
	garbage := bytes.Repeat([]byte("not a pdt trace "), 64)

	resp, body := post(t, ts.URL+"/v1/summary", garbage)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("summary on garbage: status %d: %s", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
		t.Fatalf("summary error body not JSON: %s", body)
	}

	// Doctor exists for damaged input: it reports, it does not reject.
	resp, body = post(t, ts.URL+"/v1/doctor", garbage)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("doctor on garbage: status %d: %s", resp.StatusCode, body)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("doctor: bad JSON: %v", err)
	}
	if doc["verdict"] != "UNRECOVERABLE" || doc["recoverable"] != false {
		t.Fatalf("doctor on garbage: %s", body)
	}

	// A truncated-but-real trace must come back recoverable.
	trace := smallTrace(t)
	resp, body = post(t, ts.URL+"/v1/doctor", trace[:len(trace)-len(trace)/3])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("doctor on truncated: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("doctor: bad JSON: %v", err)
	}
	if doc["recoverable"] != true {
		t.Fatalf("doctor on truncated trace: %s", body)
	}
}

func TestBodyTooLarge(t *testing.T) {
	_, ts := testServer(t, func(c *config) { c.maxBody = 512 })
	resp, body := post(t, ts.URL+"/v1/summary", make([]byte, 4096))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

func TestAnalyzerLimitMapsTo413(t *testing.T) {
	_, ts := testServer(t, func(c *config) { c.limits.MaxChunkBytes = 64 })
	resp, body := post(t, ts.URL+"/v1/summary", smallTrace(t))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "limit") {
		t.Fatalf("error body does not mention the limit: %s", body)
	}
}

func TestMethodAndPathRouting(t *testing.T) {
	_, ts := testServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/summary")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/summary: status %d", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/nonesuch", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/nonesuch: status %d", resp.StatusCode)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, ts := testServer(t, nil)
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", probe, resp.StatusCode)
		}
	}
	s.draining.Store(true)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: status %d", resp.StatusCode)
	}
	// Liveness must stay green during a drain.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: status %d", resp.StatusCode)
	}
}

func TestSheddingUnderSaturation(t *testing.T) {
	block := make(chan struct{})
	s, ts := testServer(t, func(c *config) {
		c.maxConcurrent = 1
		c.maxQueue = 1
		c.requestTimeout = 10 * time.Second
	})
	s.analysisHook = func() { <-block }
	trace := smallTrace(t)

	// First request occupies the only slot, second waits in the queue.
	results := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- postCode(ts.URL+"/v1/summary", trace)
		}()
		// Give the request time to take its slot/queue position.
		time.Sleep(100 * time.Millisecond)
	}

	// Slot busy, queue full: this one must be shed immediately.
	resp, body := post(t, ts.URL+"/v1/summary", trace)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(block)
	wg.Wait()
	close(results)
	for code := range results {
		if code != http.StatusOK {
			t.Fatalf("blocked request finished with %d, want 200", code)
		}
	}
}

func TestQueuedRequestHitsDeadline(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s, ts := testServer(t, func(c *config) {
		c.maxConcurrent = 1
		c.maxQueue = 1
		c.requestTimeout = 300 * time.Millisecond
	})
	s.analysisHook = func() { <-block }
	trace := smallTrace(t)

	go postCode(ts.URL+"/v1/summary", trace) // takes the slot, blocks
	time.Sleep(100 * time.Millisecond)

	resp, body := post(t, ts.URL+"/v1/summary", trace) // queues, then times out
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued past deadline: status %d: %s", resp.StatusCode, body)
	}
	// A queue-deadline 504 means "busy, try again" — it must advertise
	// retryability exactly like the 429 shed does.
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-deadline 504 without Retry-After")
	}
}

func TestGapsAndCritPathEndpoints(t *testing.T) {
	_, ts := testServer(t, nil)
	trace := smallTrace(t)

	resp, body := post(t, ts.URL+"/v1/gaps", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gaps: status %d: %s", resp.StatusCode, body)
	}
	var gaps struct {
		MinTicks uint64           `json:"minTicks"`
		Gaps     []map[string]any `json:"gaps"`
	}
	if err := json.Unmarshal(body, &gaps); err != nil {
		t.Fatalf("gaps: bad JSON: %v", err)
	}
	if gaps.MinTicks == 0 {
		t.Fatalf("gaps: zero threshold: %s", body)
	}

	resp, body = post(t, ts.URL+"/v1/critpath", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("critpath: status %d: %s", resp.StatusCode, body)
	}
	var cp struct {
		TotalTicks uint64           `json:"totalTicks"`
		Segments   []map[string]any `json:"segments"`
	}
	if err := json.Unmarshal(body, &cp); err != nil {
		t.Fatalf("critpath: bad JSON: %v", err)
	}
	if cp.TotalTicks == 0 || len(cp.Segments) == 0 {
		t.Fatalf("critpath: empty result: %s", body)
	}
}

// statsBody fetches and decodes GET /v1/stats.
func statsBody(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Cache map[string]any `json:"cache"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("stats: bad JSON: %v", err)
	}
	return out.Cache
}

// TestCacheStatsEndpoint proves a repeated upload is a cache hit and that
// /v1/stats reflects it; hits across different endpoints share the entry.
func TestCacheStatsEndpoint(t *testing.T) {
	_, ts := testServer(t, nil) // cache on by default
	trace := smallTrace(t)

	for _, ep := range []string{"/v1/summary", "/v1/summary", "/v1/profile", "/v1/critpath"} {
		if resp, body := post(t, ts.URL+ep, trace); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", ep, resp.StatusCode, body)
		}
	}
	st := statsBody(t, ts.URL)
	if st["enabled"] != true {
		t.Fatalf("stats: cache not enabled: %v", st)
	}
	if st["misses"] != float64(1) || st["hits"] != float64(3) {
		t.Fatalf("stats: misses=%v hits=%v, want 1 miss + 3 hits", st["misses"], st["hits"])
	}
	if st["entries"] != float64(1) || st["bytes"].(float64) <= 0 {
		t.Fatalf("stats: entries=%v bytes=%v, want 1 entry with weight", st["entries"], st["bytes"])
	}
}

func TestCacheDisabled(t *testing.T) {
	_, ts := testServer(t, func(c *config) { c.cacheBytes = 0; c.cacheEntries = 0 })
	trace := smallTrace(t)
	for i := 0; i < 2; i++ {
		if resp, body := post(t, ts.URL+"/v1/summary", trace); resp.StatusCode != http.StatusOK {
			t.Fatalf("summary: status %d: %s", resp.StatusCode, body)
		}
	}
	st := statsBody(t, ts.URL)
	if st["enabled"] != false {
		t.Fatalf("stats: cache should be disabled: %v", st)
	}
}

// TestCacheChurnNoBleed hammers a 2-entry cache with concurrent uploads of
// four distinct traces and checks every response is byte-identical to that
// trace's uncached baseline — eviction churn must never serve one trace's
// analysis for another's bytes — while retention stays within the bound.
func TestCacheChurnNoBleed(t *testing.T) {
	traces := [][]byte{
		traceBytes(t, map[string]string{"w": "48", "h": "24", "maxiter": "16"}),
		traceBytes(t, map[string]string{"w": "64", "h": "32", "maxiter": "24"}),
		traceBytes(t, map[string]string{"w": "80", "h": "40", "maxiter": "32"}),
		traceBytes(t, map[string]string{"w": "96", "h": "48", "maxiter": "40"}),
	}
	var endpoints []string
	for _, kind := range cache.AnalysisKinds {
		endpoints = append(endpoints, "/v1/"+kind)
	}

	// Baselines from a cache-disabled server: the ground truth per trace.
	_, plain := testServer(t, func(c *config) { c.cacheBytes = 0; c.cacheEntries = 0 })
	want := make(map[string][]byte)
	for ti, tr := range traces {
		for _, ep := range endpoints {
			resp, body := post(t, plain.URL+ep, tr)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("baseline %s trace %d: status %d: %s", ep, ti, resp.StatusCode, body)
			}
			want[ep+strconv.Itoa(ti)] = body
		}
	}

	s, ts := testServer(t, func(c *config) { c.cacheEntries = 2; c.cacheBytes = 0 })
	const workers, iters = 8, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ti := (w + i) % len(traces)
				ep := endpoints[(w+i)%len(endpoints)]
				resp, err := http.Post(ts.URL+ep, "application/octet-stream",
					bytes.NewReader(traces[ti]))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%s trace %d: status %d err %v", ep, ti, resp.StatusCode, err)
					return
				}
				if !bytes.Equal(body, want[ep+strconv.Itoa(ti)]) {
					t.Errorf("%s trace %d: response differs from baseline (cross-trace bleed?)", ep, ti)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.cache.Stats()
	if st.Entries > 2 {
		t.Fatalf("cache retained %d entries, bound is 2", st.Entries)
	}
	if st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("stats %+v: churn should both hit and evict", st)
	}
}

func TestPanicBecomes500AndServerSurvives(t *testing.T) {
	s, ts := testServer(t, nil)
	trace := smallTrace(t)

	s.analysisHook = func() { panic("hostile trace tickled a bug") }
	resp, body := post(t, ts.URL+"/v1/summary", trace)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d: %s", resp.StatusCode, body)
	}

	// The daemon must keep serving after a panic — including the slot,
	// which the deferred release must have returned.
	s.analysisHook = nil
	for i := 0; i < defaultConfig().maxConcurrent+1; i++ {
		resp, body = post(t, ts.URL+"/v1/summary", trace)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("after panic: status %d: %s", resp.StatusCode, body)
		}
	}
}

// TestCancelledRequestNoGoroutineLeak kills an in-flight analysis request
// and checks the daemon sheds every goroutine it spawned for it.
func TestCancelledRequestNoGoroutineLeak(t *testing.T) {
	trace := traceBytes(t, map[string]string{"w": "256", "h": "128", "maxiter": "64"})
	baseline := runtime.NumGoroutine()

	cfg := defaultConfig()
	s := newServer(cfg, quietLogger())
	ts := httptest.NewServer(s.handler())

	for trial := 0; trial < 10; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/v1/summary", bytes.NewReader(trace))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		time.Sleep(time.Duration(trial) * 500 * time.Microsecond)
		cancel()
		<-done
	}

	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRunListenFailure exercises the real entry point around Serve: run()
// must surface a listener error promptly instead of hanging. (The full
// SIGTERM drain path needs a real process and lives in the smoke test.)
func TestRunListenFailure(t *testing.T) {
	_, ts := testServer(t, nil)
	addr := ts.Listener.Addr().String()
	err := run([]string{"-addr", addr}, io.Discard, io.Discard, nil)
	if err == nil {
		t.Fatal("run() on an occupied port should fail")
	}
	if !strings.Contains(err.Error(), "address already in use") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestFlagParsing(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, io.Discard, io.Discard, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-addr", "999.999.999.999:1"}, io.Discard, io.Discard, nil); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}

// TestRetryAfterClampBounds pins the EWMA-derived Retry-After estimate
// to its contract: never below 1s, never above 60s, and the honest
// backlog-drain estimate in between.
func TestRetryAfterClampBounds(t *testing.T) {
	cfg := defaultConfig()
	cfg.maxConcurrent = 4
	s := newServer(cfg, quietLogger())

	// No observations yet: the 500ms prior over an empty backlog rounds
	// up to the 1s floor.
	if got := s.retryAfter(); got != "1" {
		t.Fatalf("cold retryAfter = %q, want 1", got)
	}

	// An absurd average must clamp at the 60s ceiling, not leak a
	// multi-minute hint that parks clients forever.
	s.avgNanos.Store(int64(10 * time.Minute))
	if got := s.retryAfter(); got != "60" {
		t.Fatalf("huge-average retryAfter = %q, want 60", got)
	}

	// Mid-range: 8s average, empty backlog (=1), 4 slots → ceil(2s) = 2.
	s.avgNanos.Store(int64(8 * time.Second))
	if got := s.retryAfter(); got != "2" {
		t.Fatalf("mid-range retryAfter = %q, want 2", got)
	}

	// A busier backlog stretches the estimate: three held slots plus the
	// caller = 4 drain turns at 8s/4 slots each → 8s.
	for i := 0; i < 3; i++ {
		s.slots <- struct{}{}
	}
	if got := s.retryAfter(); got != "8" {
		t.Fatalf("backlogged retryAfter = %q, want 8", got)
	}

	// A negative (corrupt) average falls back to the prior, not panic
	// or zero.
	s.avgNanos.Store(-1)
	for i := 0; i < 3; i++ {
		<-s.slots
	}
	if got := s.retryAfter(); got != "1" {
		t.Fatalf("negative-average retryAfter = %q, want 1", got)
	}
}

// TestObserveEWMA pins the averaging rule retryAfter builds on: first
// sample seeds the average, later samples move it by 1/8 of the gap.
func TestObserveEWMA(t *testing.T) {
	s := newServer(defaultConfig(), quietLogger())
	s.observe(800 * time.Millisecond)
	if got := time.Duration(s.avgNanos.Load()); got != 800*time.Millisecond {
		t.Fatalf("first observation = %v, want 800ms", got)
	}
	s.observe(1600 * time.Millisecond)
	if got := time.Duration(s.avgNanos.Load()); got != 900*time.Millisecond {
		t.Fatalf("after second observation = %v, want 900ms (800 + 800/8)", got)
	}
	s.observe(100 * time.Millisecond)
	if got := time.Duration(s.avgNanos.Load()); got != 800*time.Millisecond {
		t.Fatalf("after downward observation = %v, want 800ms (900 - 800/8)", got)
	}
}
