package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/harness"
	"github.com/celltrace/pdt/internal/spare"
	"github.com/celltrace/pdt/internal/workloads"
)

// TestMain runs every test of the package with recycled arrays
// poisoned: each request body offered back to the free list, and each
// kernel array offered back to the analyzer's lists, is filled with
// 0xA5, so a request that gave its body back before it was done with it
// — before the load read it, the 422 doctored it or the job spilled it —
// answers with garbage, and the golden, diff, job and cluster tests see
// it.
func TestMain(m *testing.M) {
	spare.Poison(true)
	os.Exit(m.Run())
}

// TestBodyPoolBounds: a server's body list keeps at most one buffer
// per admission slot and bodyPoolBytes in all, and drops a buffer over
// that byte bound without touching what it keeps. The list's own rules
// are internal/spare's tests.
func TestBodyPoolBounds(t *testing.T) {
	s := newServer(defaultConfig(), quietLogger())
	slots := defaultConfig().maxConcurrent
	for i := 0; i <= slots; i++ {
		s.bodies.Put(make([]byte, 0, 1<<20+i))
	}
	if n := len(s.bodies.Caps()); n != slots {
		t.Fatalf("free list keeps %d buffers after %d were offered, want -max-concurrent %d", n, slots+1, slots)
	}
	s.bodies.Put(make([]byte, 0, bodyPoolBytes-slots<<20))
	total := 0
	for _, c := range s.bodies.Caps() {
		total += c
	}
	if total > bodyPoolBytes || total < bodyPoolBytes-2<<20 {
		t.Fatalf("free list keeps %d bytes, want at most bodyPoolBytes %d and near it", total, bodyPoolBytes)
	}
	before := fmt.Sprint(s.bodies.Caps())
	s.bodies.Put(make([]byte, 0, bodyPoolBytes+1))
	if after := fmt.Sprint(s.bodies.Caps()); after != before {
		t.Fatalf("a buffer over bodyPoolBytes changed the free list from %s to %s", before, after)
	}
}

// TestLyingSenderCostsUnder2MiB: a request that announces 64 MiB and
// sends 10 bytes costs what it did without a free list, under 2 MiB,
// whether the list is empty or full of 4 MiB buffers — none of which
// holds the declared length — and leaves a full list as it was.
func TestLyingSenderCostsUnder2MiB(t *testing.T) {
	for _, full := range []bool{false, true} {
		s := newServer(defaultConfig(), quietLogger())
		h := s.handler()
		if full {
			for i := 0; i < 4; i++ {
				s.bodies.Put(make([]byte, 0, 4<<20))
			}
		}
		before := fmt.Sprint(s.bodies.Caps())
		req := httptest.NewRequest(http.MethodPost, "/v1/summary", bytes.NewReader([]byte("0123456789")))
		req.ContentLength = 64 << 20
		rec := httptest.NewRecorder()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&m1)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("full=%v: status %d, want 400: %s", full, rec.Code, rec.Body)
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got >= 2<<20 {
			t.Fatalf("full=%v: a 64 MiB Content-Length with a 10-byte body allocated %d bytes, want < 2 MiB", full, got)
		}
		if after := fmt.Sprint(s.bodies.Caps()); full && after != before {
			t.Fatalf("the lying request changed a full free list: %s -> %s", before, after)
		}
	}
}

// TestLargeUploadNotPinned: a body over the free list's byte bound is
// read, answered and then dropped, not kept for the next request.
func TestLargeUploadNotPinned(t *testing.T) {
	s, ts := testServer(t, nil)
	big := bytes.Repeat([]byte("not a pdt trace "), (bodyPoolBytes+1<<20)/16)
	if resp, out := post(t, ts.URL+"/v1/summary", big); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, out)
	}
	if resp, out := post(t, ts.URL+"/v1/summary", smallTrace(t)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	for _, c := range s.bodies.Caps() {
		if c > bodyPoolBytes {
			t.Fatalf("free list keeps a %d B buffer after a %d B upload: %v", c, len(big), s.bodies.Caps())
		}
	}
}

// servedTraces are the twelve traces artifacts.golden pins: every
// workload at its defaults, then the benchmark's large synthetic trace.
func servedTraces(t *testing.T) (names []string, images [][]byte) {
	t.Helper()
	run := func(name, workload string, params map[string]string) {
		cfg := core.DefaultTraceConfig()
		res, err := harness.Run(harness.Spec{Workload: workload, Params: params, Trace: &cfg})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names, images = append(names, name), append(images, res.TraceBytes)
	}
	for _, w := range workloads.Names() {
		run(w, w, nil)
	}
	run("synthetic.10k", "synthetic", map[string]string{"events": "10000", "gap": "100"})
	return names, images
}

// TestRecycledBodiesServeGoldenArtifacts serves every artifact
// artifacts.golden pins through one daemon, two callers at a time, each
// body sent once with its length and once chunked, while every body
// buffer is poisoned as it goes back on the free list (TestMain): the
// bodies of different sizes share the list's buffers, and every reply
// must still be the pinned bytes. The list stays inside its bounds.
func TestRecycledBodiesServeGoldenArtifacts(t *testing.T) {
	if raceEnabled {
		t.Skip("a byte pin; TestRecycledBodiesConcurrentCallers runs under the race detector")
	}
	golden, err := os.ReadFile("../../internal/analyzer/cache/testdata/artifacts.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(golden)), "\n")
	names, images := servedTraces(t)
	s, ts := testServer(t, nil)
	type job struct{ line, image int }
	var jobs []job
	for i := range images {
		for range cache.AnalysisKinds {
			jobs = append(jobs, job{len(jobs), i})
		}
	}
	if len(jobs) != len(want) {
		t.Fatalf("golden lists %d artifacts, the traces give %d", len(want), len(jobs))
	}
	got := make([]string, len(jobs))
	next := make(chan job)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []string
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				kind := cache.AnalysisKinds[j.line%len(cache.AnalysisKinds)]
				url := ts.URL + "/v1/" + kind
				sized, err1 := postTransport(url, images[j.image], false)
				chunked, err2 := postTransport(url, images[j.image], true)
				if err := errors.Join(err1, err2); err != nil || !bytes.Equal(sized, chunked) {
					mu.Lock()
					errs = append(errs, fmt.Sprintf("%s %s: %v (chunked reply equal: %v)", names[j.image], kind, err, bytes.Equal(sized, chunked)))
					mu.Unlock()
					continue
				}
				got[j.line] = fmt.Sprintf("%s %s %d %x", names[j.image], kind, len(sized), sha256.Sum256(sized))
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	for _, e := range errs {
		t.Error(e)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("served bytes differ from artifacts.golden:\n got  %s\n want %s", got[i], want[i])
		}
	}
	caps := s.bodies.Caps()
	total := 0
	for _, c := range caps {
		total += c
	}
	if len(caps) > s.cfg.maxConcurrent || total > bodyPoolBytes || len(caps) == 0 {
		t.Fatalf("free list after the run: %v (%d bytes), want 1 to %d buffers within %d bytes",
			caps, total, s.cfg.maxConcurrent, bodyPoolBytes)
	}
}

// postTransport posts body with its Content-Length or chunked and
// returns the reply of a 200.
func postTransport(url string, body []byte, chunked bool) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if chunked {
		req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(body)), -1
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, out)
	}
	return out, err
}

// TestRecycledBodiesConcurrentCallers is the recycled-body check the race
// detector runs: two callers post three traces of different sizes to
// every kind, diff two of them and diff one against a corrupt copy (the
// 422 that doctors the corrupt side), each a few times over, against
// one daemon whose free list they share. Every kind's reply is the
// in-process render, every diff the same bytes each time.
func TestRecycledBodiesConcurrentCallers(t *testing.T) {
	traces := [][]byte{
		smallTrace(t),
		traceBytes(t, map[string]string{"w": "96", "h": "48", "maxiter": "24"}),
		buildNamedTrace(t, "julia", 300),
	}
	ctx := context.Background()
	want := map[string][]byte{}
	for i, tr := range traces {
		for _, kind := range cache.AnalysisKinds {
			b, err := cache.New(0, 0).Artifact(ctx, tr, kind, analyzer.DefaultServiceLimits())
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprint(i, kind)] = b
		}
	}
	s, ts := testServer(t, nil)
	diffs := [][]byte{diffBody(t, traces[0], traces[1]), diffBody(t, traces[0], corruptTrace(traces[1]))}
	diffWant := make([][]byte, len(diffs))
	diffStatus := []int{http.StatusOK, http.StatusUnprocessableEntity}
	const rounds = 3
	var wg sync.WaitGroup
	var mu sync.Mutex
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, tr := range traces {
					for _, kind := range cache.AnalysisKinds {
						got, err := postTransport(ts.URL+"/v1/"+kind, tr, (r+c)%2 == 1)
						if err != nil {
							fail("trace %d %s: %v", i, kind, err)
						} else if !bytes.Equal(got, want[fmt.Sprint(i, kind)]) {
							fail("trace %d %s: the reply differs from the in-process render", i, kind)
						}
					}
				}
				for i, d := range diffs {
					req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/diff", bytes.NewReader(d))
					req.Header.Set("Content-Type", "multipart/form-data; boundary="+diffBoundary)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						fail("diff %d: %v", i, err)
						continue
					}
					got, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					mu.Lock()
					if diffWant[i] == nil {
						diffWant[i] = got
					}
					same := bytes.Equal(got, diffWant[i])
					mu.Unlock()
					if resp.StatusCode != diffStatus[i] || !same {
						fail("diff %d: status %d (want %d), same bytes as the first reply: %v", i, resp.StatusCode, diffStatus[i], same)
					}
				}
			}
		}()
	}
	wg.Wait()
	if !bytes.Contains(diffWant[1], []byte(`"doctor"`)) {
		t.Errorf("the corrupt-side diff carries no doctor report: %s", diffWant[1])
	}
	if n := len(s.bodies.Caps()); n == 0 || n > s.cfg.maxConcurrent {
		t.Errorf("free list holds %d buffers after the run, want 1 to %d", n, s.cfg.maxConcurrent)
	}
}
