package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/harness"
)

// countingBody is an endless request body that counts what was taken
// from it.
type countingBody struct{ n int64 }

func (c *countingBody) Read(p []byte) (int, error) {
	clear(p)
	c.n += int64(len(p))
	return len(p), nil
}

func gzipped(b []byte) []byte {
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write(b)
	zw.Close()
	return zbuf.Bytes()
}

// TestDeclaredOversizeRefusedUnread: a Content-Length over -max-body is
// a 413 from the header alone — nothing is pulled off the connection and
// nothing is buffered for a request its first line had disqualified.
func TestDeclaredOversizeRefusedUnread(t *testing.T) {
	const maxBody = 1 << 20
	cfg := defaultConfig()
	cfg.maxBody = maxBody
	s := newServer(cfg, quietLogger())
	for _, path := range []string{"/v1/summary", "/v1/doctor", "/v1/diff", "/v1/jobs"} {
		body := &countingBody{}
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = maxBody + 1
		rec := httptest.NewRecorder()
		s.handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413: %s", path, rec.Code, rec.Body)
		}
		if body.n != 0 {
			t.Errorf("%s: read %d bytes of a body whose declared length was already over the cap", path, body.n)
		}
	}
}

// TestOneImageThreeTransports: the same trace sent with a Content-Length,
// with chunked transfer and gzip-compressed is one content address — the
// replies are the same bytes and the cache loads the image once — for
// every kind. The last two are the unknown-length branch of the read
// loop, end to end.
func TestOneImageThreeTransports(t *testing.T) {
	s := newServer(defaultConfig(), quietLogger())
	var declared atomic.Int64 // the Content-Length the daemon saw last
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		declared.Store(r.ContentLength)
		s.handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	trace := smallTrace(t)
	zipped := gzipped(trace)

	transports := []struct {
		name     string
		declares int64
		req      func(url string) *http.Request
	}{
		{"content-length", int64(len(trace)), func(url string) *http.Request {
			req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(trace))
			return req
		}},
		{"chunked", -1, func(url string) *http.Request {
			req, _ := http.NewRequest(http.MethodPost, url, io.NopCloser(bytes.NewReader(trace)))
			req.ContentLength = -1
			return req
		}},
		{"gzip", int64(len(zipped)), func(url string) *http.Request {
			req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(zipped))
			req.Header.Set("Content-Encoding", "gzip")
			return req
		}},
	}
	for _, kind := range cache.AnalysisKinds {
		before := statsBody(t, ts.URL)
		var want []byte
		for _, tr := range transports {
			resp, err := http.DefaultClient.Do(tr.req(ts.URL + "/v1/" + kind))
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s via %s: status %d: %s", kind, tr.name, resp.StatusCode, got)
			}
			if declared.Load() != tr.declares {
				t.Fatalf("%s via %s: the daemon saw Content-Length %d, want %d", kind, tr.name, declared.Load(), tr.declares)
			}
			if want == nil {
				want = got
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s via %s answered differently than via %s", kind, tr.name, transports[0].name)
			}
		}
		after := statsBody(t, ts.URL)
		hits := after["hits"].(float64) - before["hits"].(float64)
		misses := after["misses"].(float64) - before["misses"].(float64)
		if misses > 1 || hits+misses != 3 {
			t.Errorf("%s: three transports cost %v hits + %v misses, want three lookups and at most one miss", kind, hits, misses)
		}
	}
}

// budgetTrace is the trace the request allocation budgets are measured
// on: synthetic, 4,000 events per SPE, a 1.2 MB body.
func budgetTrace(t *testing.T) []byte {
	t.Helper()
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic",
		Params:   map[string]string{"events": "4000", "gap": "100"},
		Trace:    &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.TraceBytes
}

// bytesPerRequest posts body to url n times, after one request that
// primes the cache (or pays a cacheless path's one-time allocations), and
// returns what each request allocated on average, client and daemon
// together.
func bytesPerRequest(t *testing.T, url string, body []byte, n int) uint64 {
	t.Helper()
	post(t, url, body)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if resp, out := post(t, url, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, out)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestWarmHitAllocationBudget holds the warm request path to a
// host-independent budget: serving a cached artifact may allocate the
// body once (plus the first-MiB buffer a declared length earns its trust
// with) and little else. Reading the body by doubling cost six times the
// body here; hashing it in a second pass cost nothing in bytes, which is
// why the budget is in bytes and the benchmark holds the time.
func TestWarmHitAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations swamp the budget")
	}
	trace := budgetTrace(t)
	_, ts := testServer(t, nil)
	perRequest := bytesPerRequest(t, ts.URL+"/v1/summary", trace, 20)
	budget := uint64(len(trace))*5/4 + 5<<18
	t.Logf("%d B/request for a %d B body (budget %d)", perRequest, len(trace), budget)
	if perRequest > budget {
		t.Fatalf("a warm /v1/summary allocates %d B per request for a %d B body, budget %d (1.25 x body + 1.25 MiB)",
			perRequest, len(trace), budget)
	}
}

// TestColdSummaryAllocationBudget holds the request the cache cannot
// answer to a budget of its own. With the cache disabled every
// /v1/summary reads the body, loads and validates the trace, summarises
// it and renders the document: 4.48x the body per request when this
// budget was first set, 4.54x before the load stopped keeping a raw-time
// column and a per-record time buffer, and 3.97-4.19x since. The budget
// is a quarter over the top of that.
func TestColdSummaryAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations swamp the budget")
	}
	trace := budgetTrace(t)
	_, ts := testServer(t, func(c *config) { c.cacheBytes, c.cacheEntries = 0, 0 })
	perRequest := bytesPerRequest(t, ts.URL+"/v1/summary", trace, 10)
	budget := uint64(len(trace)) * 26 / 5
	t.Logf("%d B/request for a %d B body, %.2fx (budget %d)", perRequest, len(trace),
		float64(perRequest)/float64(len(trace)), budget)
	if perRequest > budget {
		t.Fatalf("a cold /v1/summary allocates %d B per request for a %d B body, budget %d (5.2 x body)",
			perRequest, len(trace), budget)
	}
}

// TestGzipCapIsExact: a gzip body that inflates to exactly -max-body is
// read (and then rejected for what it is, not for its size); one byte
// more is a 413.
func TestGzipCapIsExact(t *testing.T) {
	const maxBody = 4096
	_, ts := testServer(t, func(c *config) { c.maxBody = maxBody })
	for n, want := range map[int]int{maxBody: http.StatusBadRequest, maxBody + 1: http.StatusRequestEntityTooLarge} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/summary", bytes.NewReader(gzipped(make([]byte, n))))
		req.Header.Set("Content-Encoding", "gzip")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("gzip body inflating to %d bytes under a %d cap: status %d, want %d", n, maxBody, resp.StatusCode, want)
		}
	}
}
