package main

// Service-level chaos tests: the daemon is killed (in-process, via the
// chaos plan's kill rule) at every job phase, restarted over the
// same state directory, and must converge — exactly one completion per
// job, byte-identical to an uninterrupted run. Plus the durable tier's
// happy paths: async round-trip, warm restart from disk, and graceful
// degrade to synchronous mode when the disk is failing.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/faults"
	"github.com/celltrace/pdt/internal/jobs"
)

// durableServer builds a server over a state directory, running
// setupState (disk tier + journal + job manager) like main does.
func durableServer(t *testing.T, stateDir string, mut func(*config)) (*server, *httptest.Server) {
	t.Helper()
	cfg := defaultConfig()
	cfg.stateDir = stateDir
	cfg.jobs.BackoffBase = time.Millisecond
	cfg.jobs.BackoffCap = 5 * time.Millisecond
	if mut != nil {
		mut(&cfg)
	}
	s := newServer(cfg, quietLogger())
	if err := s.setupState(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.closeState)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

func submitJob(t *testing.T, ts *httptest.Server, kind string, trace []byte, extra string) (*http.Response, jobs.Job) {
	t.Helper()
	resp, body := post(t, ts.URL+"/v1/jobs?kind="+kind+extra, trace)
	var jb jobs.Job
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &jb); err != nil {
			t.Fatalf("202 body not a job doc: %v\n%s", err, body)
		}
	}
	return resp, jb
}

func waitJobStatus(t *testing.T, ts *httptest.Server, id, status string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var jb jobs.Job
	for time.Now().Before(deadline) {
		resp, body := getBody(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job poll: %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &jb); err != nil {
			t.Fatal(err)
		}
		if jb.Status == status {
			return jb
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s: %+v", id, status, jb)
	return jb
}

// TestJobAsyncRoundTrip: submit, 202, poll to done, fetch the result,
// and receive the webhook — with the result byte-identical to the
// synchronous endpoint's answer.
func TestJobAsyncRoundTrip(t *testing.T) {
	trace := smallTrace(t)
	var hooks atomic.Int32
	var hookBody atomic.Value
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		hookBody.Store(string(b))
		hooks.Add(1)
	}))
	defer hook.Close()

	_, ts := durableServer(t, t.TempDir(), nil)
	// Baseline from the synchronous endpoint.
	resp, want := post(t, ts.URL+"/v1/critpath", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync baseline: %d", resp.StatusCode)
	}

	resp, jb := submitJob(t, ts, "critpath", trace, "&webhook="+hook.URL)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+jb.ID {
		t.Fatalf("Location: %q", loc)
	}
	done := waitJobStatus(t, ts, jb.ID, jobs.StatusDone)
	if done.Attempts != 1 || done.Error != "" {
		t.Fatalf("done job: %+v", done)
	}

	resp, got := getBody(t, ts.URL+"/v1/jobs/"+jb.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("async result differs from the synchronous endpoint")
	}
	deadline := time.Now().Add(5 * time.Second)
	for hooks.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if hooks.Load() != 1 {
		t.Fatalf("webhook deliveries: %d", hooks.Load())
	}
	if b, _ := hookBody.Load().(string); !strings.Contains(b, `"status":"done"`) {
		t.Fatalf("webhook payload: %q", b)
	}
}

// TestJobSyncDegradeNoStateDir: without -state-dir the job endpoint
// still answers — synchronously, flagged, and byte-identical to the
// matching endpoint.
func TestJobSyncDegradeNoStateDir(t *testing.T) {
	trace := smallTrace(t)
	_, ts := testServer(t, nil)
	_, want := post(t, ts.URL+"/v1/summary", trace)

	resp, got := post(t, ts.URL+"/v1/jobs?kind=summary", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded submit: %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Pdt-Mode") != "sync" {
		t.Fatal("sync degrade not flagged")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sync-degraded job result differs from /v1/summary")
	}
	// And the poll endpoints say the API is off rather than 500ing.
	if resp, _ := getBody(t, ts.URL+"/v1/jobs/j-nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("job poll without state dir: %d", resp.StatusCode)
	}
}

// TestJobSubmitWaitsForAdmission: a durable job submission reads its
// upload only inside admission control. With the one slot held and no
// queue, POST /v1/jobs is shed with a 429 before its body is spilled or
// journaled; once the slot is free, the same submission is accepted.
func TestJobSubmitWaitsForAdmission(t *testing.T) {
	trace := smallTrace(t)
	dir := t.TempDir()
	s, ts := durableServer(t, dir, func(c *config) {
		c.maxConcurrent, c.maxQueue = 1, 0
	})
	entered, block := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	t.Cleanup(release) // before the server's Close, which waits for the held request
	s.analysisHook = func() {
		close(entered)
		<-block
	}
	done := make(chan int)
	go func() { done <- postCode(ts.URL+"/v1/summary", trace) }()
	<-entered

	resp, body := post(t, ts.URL+"/v1/jobs?kind=summary", trace)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("submission with the only slot held: status %d, Retry-After %q; body %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if st := s.jobs.Stats(); st.Accepted != 0 {
		t.Fatalf("a shed submission was journaled: %+v", st)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "jobs.journal")); err == nil && bytes.Contains(raw, []byte("accept")) {
		t.Fatalf("the journal holds an accept record after a shed submission: %q", raw)
	}
	if s.cache.Disk().Has(cache.KeyOf(trace), cache.KindTrace) {
		t.Fatal("a shed submission spilled its image to the disk tier")
	}

	s.analysisHook = nil
	release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("the request holding the slot finished with %d", code)
	}
	if resp, body := post(t, ts.URL+"/v1/jobs?kind=summary", trace); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission with the slot free: status %d; body %s", resp.StatusCode, body)
	}
}

// TestJobDiskFullDegradesToSync: once the disk tier starts failing
// writes, job submissions degrade to synchronous responses and readyz
// reports the degradation — no 500s, no lost requests. The degraded
// request serves the image it has already read: one load, one miss, and
// the bytes /v1/summary then serves from the cache.
func TestJobDiskFullDegradesToSync(t *testing.T) {
	trace := smallTrace(t)
	s, ts := durableServer(t, t.TempDir(), func(c *config) {
		// every disk-tier write fails
		c.chaos = &faults.ServicePlan{DiskFulls: []faults.DiskFullRule{{After: 0, Count: faults.EveryTime}}}
	})
	resp, got := post(t, ts.URL+"/v1/jobs?kind=summary", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disk-full submit: %d %s", resp.StatusCode, got)
	}
	if resp.Header.Get("X-Pdt-Mode") != "sync" {
		t.Fatal("disk-full degrade not flagged as sync")
	}
	var doc struct {
		Totals any `json:"totals"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("sync response not analysis JSON: %v", err)
	}
	if st := s.cache.Stats(); st.Misses != 1 || st.Hits != 0 || st.Dedups != 0 {
		t.Fatalf("the degraded submission cost %d misses, %d hits, %d dedups; want one miss", st.Misses, st.Hits, st.Dedups)
	}
	if resp, want := post(t, ts.URL+"/v1/summary", trace); resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("the degraded job answered differently than /v1/summary (status %d)", resp.StatusCode)
	}
	if st := s.cache.Stats(); st.Misses != 1 {
		t.Fatalf("/v1/summary after the degraded job loaded again: %+v", st)
	}
	resp, body := getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "degraded") {
		t.Fatalf("readyz during disk failure: %d %q", resp.StatusCode, body)
	}
}

// TestWarmRestartServesFromDisk: a second daemon over the same state
// directory serves a known trace without re-running the load/analysis
// pipeline — the artifact comes off the disk tier, byte-identical.
func TestWarmRestartServesFromDisk(t *testing.T) {
	trace := smallTrace(t)
	dir := t.TempDir()

	s1, ts1 := durableServer(t, dir, nil)
	resp, want := post(t, ts1.URL+"/v1/summary", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold request: %d", resp.StatusCode)
	}
	cold := s1.cache.Stats()
	if cold.Misses != 1 {
		t.Fatalf("cold run should load once: %+v", cold)
	}
	ts1.Close()
	s1.closeState()

	s2, ts2 := durableServer(t, dir, nil)
	resp, got := post(t, ts2.URL+"/v1/summary", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request: %d", resp.StatusCode)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("warm-restart response differs")
	}
	warm := s2.cache.Stats()
	if warm.Misses != 0 {
		t.Fatalf("warm restart re-ran the load: %+v", warm)
	}
	dst := s2.cache.Disk().Stats()
	if dst.Hits == 0 || dst.Rehydrated == 0 {
		t.Fatalf("warm restart did not use the disk tier: %+v", dst)
	}
}

// TestWarmRestartPromotesDiskHit: after a restart the first request for
// a known artifact reads it off the disk tier and keeps it in the memory
// tier, so the second is a memory hit and the object is read once.
func TestWarmRestartPromotesDiskHit(t *testing.T) {
	trace := smallTrace(t)
	dir := t.TempDir()
	s1, ts1 := durableServer(t, dir, nil)
	resp, want := post(t, ts1.URL+"/v1/profile", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold request: %d", resp.StatusCode)
	}
	ts1.Close()
	s1.closeState()

	s2, ts2 := durableServer(t, dir, nil)
	for i := 0; i < 2; i++ {
		if resp, got := post(t, ts2.URL+"/v1/profile", trace); resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("request %d after restart: status %d, or bytes that differ from the cold run's", i+1, resp.StatusCode)
		}
	}
	if st := s2.cache.Stats(); st.Hits != 1 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("cache stats %+v: want the second request as one memory hit and no load", st)
	}
	if dst := s2.cache.Disk().Stats(); dst.Hits != 1 {
		t.Fatalf("disk stats %+v: want one disk hit for two requests", dst)
	}
}

// finishedJob runs one profile job to completion over dir and shuts the
// daemon down, returning the job's id and its result bytes.
func finishedJob(t *testing.T, dir string, trace []byte) (string, []byte) {
	t.Helper()
	s, ts := durableServer(t, dir, nil)
	resp, jb := submitJob(t, ts, cache.KindProfile, trace, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitJobStatus(t, ts, jb.ID, jobs.StatusDone)
	resp, want := getBody(t, ts.URL+"/v1/jobs/"+jb.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, want)
	}
	ts.Close()
	s.closeState()
	return jb.ID, want
}

// TestJobResultOutlivesItsImage: a done job's result is looked up by its
// key, so it is served while the artifact is kept even after the trace
// image has left the disk tier.
func TestJobResultOutlivesItsImage(t *testing.T) {
	trace := smallTrace(t)
	dir := t.TempDir()
	id, want := finishedJob(t, dir, trace)
	if err := os.Remove(filepath.Join(dir, "objects", cache.KeyOf(trace).String()+"."+cache.KindTrace)); err != nil {
		t.Fatal(err)
	}

	_, ts := durableServer(t, dir, nil)
	resp, got := getBody(t, ts.URL+"/v1/jobs/"+id+"/result")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("result with the image gone and the artifact kept: status %d, body %s", resp.StatusCode, got)
	}
}

// TestJobResultRecomputeWaitsForAdmission: a result whose artifact is
// gone is recomputed from the image inside admission control, so with
// the one slot held and no queue it is shed with a 429, and served once
// the slot is free.
func TestJobResultRecomputeWaitsForAdmission(t *testing.T) {
	trace := smallTrace(t)
	dir := t.TempDir()
	id, want := finishedJob(t, dir, trace)
	if err := os.Remove(filepath.Join(dir, "objects", cache.KeyOf(trace).String()+"."+cache.KindProfile)); err != nil {
		t.Fatal(err)
	}

	s, ts := durableServer(t, dir, func(c *config) {
		c.maxConcurrent, c.maxQueue = 1, 0
	})
	entered, block := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	t.Cleanup(release) // before the server's Close, which waits for the held request
	s.analysisHook = func() {
		close(entered)
		<-block
	}
	done := make(chan int)
	go func() { done <- postCode(ts.URL+"/v1/summary", trace) }()
	<-entered

	resp, body := getBody(t, ts.URL+"/v1/jobs/"+id+"/result")
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("recompute with the only slot held: status %d, Retry-After %q; body %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}

	s.analysisHook = nil
	release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("the request holding the slot finished with %d", code)
	}
	if resp, got := getBody(t, ts.URL+"/v1/jobs/"+id+"/result"); resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("recompute with the slot free: status %d, body %s", resp.StatusCode, got)
	}
}

// TestChaosKillEveryPhase is the headline chaos drill: a daemon armed
// with a kill rule at PHASE dies mid-job at each phase in turn; a clean
// daemon over the same state directory must replay the journal and
// converge — job done, exactly one done record, exactly one webhook,
// and the result byte-identical to an uninterrupted run's.
func TestChaosKillEveryPhase(t *testing.T) {
	trace := smallTrace(t)

	// Baseline artifact from an undisturbed server.
	_, clean := testServer(t, nil)
	resp, want := post(t, clean.URL+"/v1/gaps", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline: %d", resp.StatusCode)
	}

	for _, phase := range jobs.Phases {
		t.Run(phase, func(t *testing.T) {
			dir := t.TempDir()
			var hooks atomic.Int32
			hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				hooks.Add(1)
			}))
			defer hook.Close()

			s1, ts1 := durableServer(t, dir, func(c *config) {
				c.chaos = &faults.ServicePlan{Kills: []faults.KillRule{{Phase: phase, Nth: 1}}}
			})
			resp, jb := submitJob(t, ts1, "gaps", trace, "&webhook="+hook.URL)
			// A kill at accept happens before the 202 can be written; any
			// later phase acknowledges normally and dies in a worker.
			if phase == "accept" {
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("kill at accept: %d", resp.StatusCode)
				}
			} else if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d", resp.StatusCode)
			}
			// The "process" is dead once the manager crashes; for phases at
			// or after done the job may have finished first — the crash
			// still fires (webhook phase) or already fired.
			deadline := time.Now().Add(10 * time.Second)
			for !s1.jobs.Crashed() && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
			if !s1.jobs.Crashed() {
				t.Fatal("chaos kill never fired")
			}
			// A dead durable tier must show on readyz.
			if resp, body := getBody(t, ts1.URL+"/readyz"); resp.StatusCode != http.StatusOK ||
				!strings.Contains(string(body), "degraded") {
				t.Fatalf("readyz after crash: %d %q", resp.StatusCode, body)
			}
			ts1.Close()
			s1.closeState()
			preRestart := hooks.Load()

			// Restart clean over the same state dir: the journal replays.
			s2, ts2 := durableServer(t, dir, nil)
			adopted := s2.jobs.Jobs()
			if len(adopted) != 1 {
				t.Fatalf("replay adopted %d jobs", len(adopted))
			}
			id := adopted[0].ID
			if jb.ID != "" && jb.ID != id {
				t.Fatalf("journal job %s != accepted job %s", id, jb.ID)
			}
			done := waitJobStatus(t, ts2, id, jobs.StatusDone)
			if phase != "done" && phase != "webhook" && !done.Replayed {
				t.Fatalf("job not marked replayed: %+v", done)
			}

			// Byte-identical convergence with the uninterrupted run.
			resp, got := getBody(t, ts2.URL+"/v1/jobs/"+id+"/result")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result after replay: %d %s", resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("kill at %s: replayed result differs from uninterrupted run", phase)
			}

			// Exactly-once: one done record in the journal, one webhook.
			raw, err := os.ReadFile(filepath.Join(dir, "jobs.journal"))
			if err != nil {
				t.Fatal(err)
			}
			if n := countJournalOps(raw, id, "done"); n != 1 {
				t.Fatalf("kill at %s: %d done records, want exactly 1", phase, n)
			}
			deadline = time.Now().Add(5 * time.Second)
			for hooks.Load() == preRestart && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if total := hooks.Load(); total != 1 {
				t.Fatalf("kill at %s: %d webhook deliveries, want exactly 1", phase, total)
			}
			if n := countJournalOps(raw, id, "accept"); n != 1 {
				t.Fatalf("kill at %s: %d accept records", phase, n)
			}
		})
	}
}

// countJournalOps counts journal records for one job without importing
// the package internals: each line is "pdtj1 <crc> <json>".
func countJournalOps(raw []byte, id, op string) int {
	n := 0
	for _, line := range strings.Split(string(raw), "\n") {
		parts := strings.SplitN(line, " ", 3)
		if len(parts) != 3 {
			continue
		}
		var rec struct {
			Op string `json:"op"`
			ID string `json:"id"`
		}
		if err := json.Unmarshal([]byte(parts[2]), &rec); err != nil {
			continue
		}
		if rec.ID == id && rec.Op == op {
			n++
		}
	}
	return n
}

// TestChaosTornJournalWrite: a torn journal append is a crash; the
// damaged line must be invisible to the next boot's replay and the job
// must still converge.
func TestChaosTornJournalWrite(t *testing.T) {
	trace := smallTrace(t)
	dir := t.TempDir()
	// Faulted writes, in order: #1 the trace image spill, #2 the accept
	// record, #3 the start record — which is the one that tears.
	s1, ts1 := durableServer(t, dir, func(c *config) {
		c.chaos = &faults.ServicePlan{Torns: []faults.TornRule{{Nth: 3, Keep: -1}}}
	})
	resp, _ := submitJob(t, ts1, "summary", trace, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !s1.jobs.Crashed() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if !s1.jobs.Crashed() {
		t.Fatal("torn journal write did not crash the manager")
	}
	ts1.Close()
	s1.closeState()

	s2, ts2 := durableServer(t, dir, nil)
	if st := s2.jobs.Stats(); st.Damaged != 1 {
		t.Fatalf("torn line not dropped at replay: %+v", st)
	}
	adopted := s2.jobs.Jobs()
	if len(adopted) != 1 {
		t.Fatalf("replay adopted %d jobs", len(adopted))
	}
	done := waitJobStatus(t, ts2, adopted[0].ID, jobs.StatusDone)
	if done.ResultCRC == 0 {
		t.Fatalf("replayed job has no result CRC: %+v", done)
	}
}

// TestJobResultRecomputesAfterMemoryLoss: the /result endpoint restores
// through the disk tier even when the artifact object is corrupt — it
// recomputes from the durable raw image rather than erroring.
func TestJobResultRecomputesAfterMemoryLoss(t *testing.T) {
	trace := smallTrace(t)
	dir := t.TempDir()
	s1, ts1 := durableServer(t, dir, nil)
	resp, jb := submitJob(t, ts1, "profile", trace, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitJobStatus(t, ts1, jb.ID, jobs.StatusDone)
	_, want := getBody(t, ts1.URL+"/v1/jobs/"+jb.ID+"/result")
	ts1.Close()
	s1.closeState()

	// Corrupt the stored profile artifact; keep the raw image intact.
	key := cache.KeyOf(trace)
	objPath := filepath.Join(dir, "objects", key.String()+"."+cache.KindProfile)
	raw, err := os.ReadFile(objPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x40
	if err := os.WriteFile(objPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := durableServer(t, dir, nil)
	resp, got := getBody(t, ts2.URL+"/v1/jobs/"+jb.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result over corrupt artifact: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recomputed result differs")
	}
	if dst := s2.cache.Disk().Stats(); dst.Corrupt == 0 {
		t.Fatalf("corruption not detected: %+v", dst)
	}
}

// TestJobSyncAllKinds: the degraded (no -state-dir) job endpoint and the
// cache-disabled daemon must both render every analysis kind
// byte-identically to the cached synchronous endpoint — the kind →
// renderer mapping has no odd one out.
func TestJobSyncAllKinds(t *testing.T) {
	trace := smallTrace(t)
	_, ts := testServer(t, nil)
	_, plain := testServer(t, func(c *config) { c.cacheBytes = 0; c.cacheEntries = 0 })
	for _, kind := range cache.AnalysisKinds {
		_, want := post(t, ts.URL+"/v1/"+kind, trace)
		if resp, uncached := post(t, plain.URL+"/v1/"+kind, trace); resp.StatusCode != http.StatusOK || !bytes.Equal(uncached, want) {
			t.Fatalf("%s: cache-disabled daemon answered status %d, or bytes that differ from the cached daemon's", kind, resp.StatusCode)
		}
		resp, got := post(t, ts.URL+"/v1/jobs?kind="+kind, trace)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: degraded submit status %d", kind, resp.StatusCode)
		}
		if resp.Header.Get("X-Pdt-Mode") != "sync" {
			t.Fatalf("%s: sync degrade not flagged", kind)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: sync job bytes differ from /v1/%s", kind, kind)
		}
	}
	// An unknown kind is rejected up front, durable or not.
	if resp, _ := post(t, ts.URL+"/v1/jobs?kind=nonsense", trace); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d", resp.StatusCode)
	}
}

// TestJobResultStates walks GET /v1/jobs/{id}/result through its
// non-happy states: unknown id → 404, job still pending → 409 with a
// derived Retry-After, terminally failed → 409 with the job document.
func TestJobResultStates(t *testing.T) {
	garbage := []byte("this is not a PDT trace image")

	// A huge backoff freezes the job in queued after its first failed
	// attempt, making the pending window deterministic.
	_, slow := durableServer(t, t.TempDir(), func(c *config) {
		c.jobs.BackoffBase = time.Hour
		c.jobs.BackoffCap = time.Hour
	})
	if resp, _ := getBody(t, slow.URL+"/v1/jobs/j-nope/result"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", resp.StatusCode)
	}
	resp, jb := submitJob(t, slow, cache.KindSummary, garbage, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur := waitJobStatus(t, slow, jb.ID, jobs.StatusQueued)
		if cur.Attempts >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached its backoff window")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, _ = getBody(t, slow.URL+"/v1/jobs/"+jb.ID+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("pending result: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("pending result missing Retry-After")
	}

	// Fast backoff: the same garbage exhausts its attempt budget and
	// fails terminally; the result endpoint reports that, not a 500.
	_, fast := durableServer(t, t.TempDir(), nil)
	resp, jb = submitJob(t, fast, cache.KindSummary, garbage, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	failed := waitJobStatus(t, fast, jb.ID, jobs.StatusFailed)
	if failed.Error == "" {
		t.Fatal("failed job carries no error")
	}
	resp, body := getBody(t, fast.URL+"/v1/jobs/"+jb.ID+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("failed result: status %d %s", resp.StatusCode, body)
	}
	var doc jobs.Job
	if err := json.Unmarshal(body, &doc); err != nil || doc.Status != jobs.StatusFailed {
		t.Fatalf("failed result body: %v %s", err, body)
	}
}
