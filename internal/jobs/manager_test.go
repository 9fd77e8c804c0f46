package jobs

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/faults"
)

// testEnv is an in-memory stand-in for the disk tier + analysis cache.
type testEnv struct {
	mu        sync.Mutex
	images    map[string][]byte
	execs     atomic.Int64
	execErrs  atomic.Int64 // first N execs fail
	delivered []string     // webhook payloads, in order
	notifyErr atomic.Int64 // first N deliveries fail
	released  []string
}

func newEnv() *testEnv {
	return &testEnv{images: map[string][]byte{}}
}

func (e *testEnv) put(key string, img []byte) {
	e.mu.Lock()
	e.images[key] = img
	e.mu.Unlock()
}

func (e *testEnv) fetch(key string) ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	img, ok := e.images[key]
	return img, ok
}

// exec renders a deterministic artifact from (kind, image).
func (e *testEnv) exec(_ context.Context, kind string, img []byte) ([]byte, error) {
	n := e.execs.Add(1)
	if n <= e.execErrs.Load() {
		return nil, fmt.Errorf("injected exec failure %d", n)
	}
	return []byte(fmt.Sprintf("artifact/%s/%08x", kind, crc32.ChecksumIEEE(img))), nil
}

func (e *testEnv) notify(url string, payload []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if int64(len(e.delivered)) < e.notifyErr.Load() {
		e.delivered = append(e.delivered, "") // count the failed slot
		return errors.New("injected webhook failure")
	}
	e.delivered = append(e.delivered, url+" "+string(payload))
	return nil
}

func (e *testEnv) release(key string) {
	e.mu.Lock()
	e.released = append(e.released, key)
	e.mu.Unlock()
}

func (e *testEnv) config() Config {
	return Config{
		Workers:     2,
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
		Fetch:       e.fetch,
		Exec:        e.exec,
		Notify:      e.notify,
		Release:     e.release,
	}
}

func waitJob(t *testing.T, m *Manager, id string, status string) Job {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if jb, ok := m.Get(id); ok && jb.Status == status {
			return jb
		}
		time.Sleep(2 * time.Millisecond)
	}
	jb, _ := m.Get(id)
	t.Fatalf("job %s never reached %s: %+v", id, status, jb)
	return Job{}
}

func waitWebhooks(t *testing.T, m *Manager, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m.Stats().WebhooksOK >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("webhook count never reached %d: %+v", n, m.Stats())
}

func openManager(t *testing.T, path string, cfg Config) (*Manager, *Journal) {
	t.Helper()
	j, recs, st, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := New(j, recs, st, cfg)
	m.Start()
	return m, j
}

func countOps(t *testing.T, path, id, op string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := parseJournal(raw)
	n := 0
	for _, r := range recs {
		if r.ID == id && r.Op == op {
			n++
		}
	}
	return n
}

func TestJobLifecycle(t *testing.T) {
	env := newEnv()
	env.put("k1", []byte("trace-image"))
	path := journalPath(t)
	m, j := openManager(t, path, env.config())
	defer func() { m.Stop(); j.Close() }()

	jb, err := m.Submit("summary", "k1", "http://hook")
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, m, jb.ID, StatusDone)
	want, _ := env.exec(context.Background(), "summary", []byte("trace-image"))
	if done.ResultCRC != crc32.ChecksumIEEE(want) {
		t.Fatalf("result CRC %08x, want %08x", done.ResultCRC, crc32.ChecksumIEEE(want))
	}
	waitWebhooks(t, m, 1)
	env.mu.Lock()
	deliveredTo := env.delivered[0]
	released := append([]string(nil), env.released...)
	env.mu.Unlock()
	if !strings.HasPrefix(deliveredTo, "http://hook ") || !strings.Contains(deliveredTo, `"status":"done"`) {
		t.Fatalf("webhook payload: %q", deliveredTo)
	}
	if len(released) != 1 || released[0] != "k1" {
		t.Fatalf("release calls: %v", released)
	}
	if n := countOps(t, path, jb.ID, "done"); n != 1 {
		t.Fatalf("%d done records", n)
	}
	st := m.Stats()
	if st.Accepted != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestJobRetryBackoff: two injected failures, then success — the job
// completes on attempt 3 with two fail records journaled.
func TestJobRetryBackoff(t *testing.T) {
	env := newEnv()
	env.put("k1", []byte("img"))
	env.execErrs.Store(2)
	path := journalPath(t)
	m, j := openManager(t, path, env.config())
	defer func() { m.Stop(); j.Close() }()

	jb, err := m.Submit("gaps", "k1", "")
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, m, jb.ID, StatusDone)
	if done.Attempts != 3 {
		t.Fatalf("attempts=%d want 3", done.Attempts)
	}
	if done.Error != "" {
		t.Fatalf("done job kept error %q", done.Error)
	}
	if n := countOps(t, path, jb.ID, "fail"); n != 2 {
		t.Fatalf("%d fail records, want 2", n)
	}
	if st := m.Stats(); st.Retries != 2 {
		t.Fatalf("retries=%d", st.Retries)
	}
}

// TestJobGiveup: the attempt budget exhausts; the job fails terminally
// with a giveup record, the key is released, and the webhook still fires.
func TestJobGiveup(t *testing.T) {
	env := newEnv()
	env.put("k1", []byte("img"))
	env.execErrs.Store(100)
	path := journalPath(t)
	m, j := openManager(t, path, env.config())
	defer func() { m.Stop(); j.Close() }()

	jb, err := m.Submit("profile", "k1", "http://hook")
	if err != nil {
		t.Fatal(err)
	}
	failed := waitJob(t, m, jb.ID, StatusFailed)
	if failed.Attempts != 3 || !strings.Contains(failed.Error, "injected exec failure") {
		t.Fatalf("failed job: %+v", failed)
	}
	waitWebhooks(t, m, 1)
	if n := countOps(t, path, jb.ID, "giveup"); n != 1 {
		t.Fatalf("%d giveup records", n)
	}
	if n := countOps(t, path, jb.ID, "done"); n != 0 {
		t.Fatal("failed job has a done record")
	}
}

// TestJobFetchMiss: a vanished trace image is terminal — retrying
// cannot restore bytes the disk lost.
func TestJobFetchMiss(t *testing.T) {
	env := newEnv()
	path := journalPath(t)
	m, j := openManager(t, path, env.config())
	defer func() { m.Stop(); j.Close() }()

	jb, err := m.Submit("summary", "missing", "")
	if err != nil {
		t.Fatal(err)
	}
	failed := waitJob(t, m, jb.ID, StatusFailed)
	if !strings.Contains(failed.Error, "unavailable") || failed.Attempts != 1 {
		t.Fatalf("fetch miss: %+v", failed)
	}
}

func TestJobQueueFull(t *testing.T) {
	env := newEnv()
	cfg := env.config()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	// A fetch that blocks keeps the worker busy so the queue backs up.
	block := make(chan struct{})
	cfg.Fetch = func(key string) ([]byte, bool) { <-block; return []byte("x"), true }
	m, j := openManager(t, journalPath(t), cfg)
	defer func() { close(block); m.Stop(); j.Close() }()

	if _, err := m.Submit("summary", "k", ""); err != nil {
		t.Fatal(err)
	}
	var busy bool
	for i := 0; i < 10; i++ {
		if _, err := m.Submit("summary", "k", ""); errors.Is(err, ErrBusy) {
			busy = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !busy {
		t.Fatal("queue never reported ErrBusy")
	}
}

// TestChaosCrashReplayEveryPhase is the heart of the exactly-once story: the
// manager is killed at each job phase in turn, restarted over the same
// journal, and must converge to the same result CRC as an uninterrupted
// run, with exactly one done record and at most one webhook delivery.
func TestChaosCrashReplayEveryPhase(t *testing.T) {
	img := []byte("trace-image-bytes")
	control := newEnv()
	baseline, _ := control.exec(context.Background(), "summary", img)
	wantCRC := crc32.ChecksumIEEE(baseline)

	for _, phase := range Phases {
		t.Run(phase, func(t *testing.T) {
			env := newEnv()
			env.put("k1", img)
			path := journalPath(t)

			cfg := env.config()
			killed := make(chan struct{})
			var once sync.Once
			cfg.PhaseHook = func(id, ph string) error {
				if ph == phase {
					once.Do(func() { close(killed) })
					return errors.New("chaos kill")
				}
				return nil
			}
			j1, recs, st, err := OpenJournal(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			m1 := New(j1, recs, st, cfg)
			m1.Start()
			_, submitErr := m1.Submit("summary", "k1", "http://hook")
			select {
			case <-killed:
			case <-time.After(5 * time.Second):
				t.Fatal("kill phase never reached")
			}
			if phase == PhaseAccept && !errors.Is(submitErr, ErrCrashed) {
				t.Fatalf("kill at accept: Submit returned %v", submitErr)
			}
			m1.Stop()
			if !m1.Crashed() {
				t.Fatal("manager did not record the crash")
			}
			j1.Close()

			// Restart: clean manager over the same journal. The job must
			// converge to done with the baseline CRC.
			m2, j2 := openManager(t, path, env.config())
			defer func() { m2.Stop(); j2.Close() }()
			jobs := m2.Jobs()
			if len(jobs) != 1 {
				t.Fatalf("replay adopted %d jobs", len(jobs))
			}
			id := jobs[0].ID
			done := waitJob(t, m2, id, StatusDone)
			if !done.Replayed {
				t.Fatal("replayed job not marked Replayed")
			}
			if done.ResultCRC != wantCRC {
				t.Fatalf("replayed CRC %08x != baseline %08x", done.ResultCRC, wantCRC)
			}
			waitWebhooks(t, m2, 1)
			if n := countOps(t, path, id, "done"); n != 1 {
				t.Fatalf("kill at %s: %d done records, want exactly 1", phase, n)
			}
			if n := countOps(t, path, id, "notified"); n != 1 {
				t.Fatalf("kill at %s: %d notified records", phase, n)
			}
			// A second restart must not re-run or re-notify anything.
			m3, j3 := openManager(t, path, env.config())
			defer func() { m3.Stop(); j3.Close() }()
			time.Sleep(20 * time.Millisecond)
			if n := countOps(t, path, id, "done"); n != 1 {
				t.Fatal("idle restart re-ran a finished job")
			}
			if st := m3.Stats(); st.WebhooksOK != 0 {
				t.Fatal("idle restart re-delivered a webhook")
			}
		})
	}
}

// TestWebhookRedeliveryAfterRestart: a job whose webhook delivery failed
// is redelivered — and only the webhook — on the next boot.
func TestWebhookRedeliveryAfterRestart(t *testing.T) {
	env := newEnv()
	env.put("k1", []byte("img"))
	env.notifyErr.Store(1) // first delivery fails
	path := journalPath(t)
	m1, j1 := openManager(t, path, env.config())

	jb, err := m1.Submit("summary", "k1", "http://hook")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m1, jb.ID, StatusDone)
	deadline := time.Now().Add(5 * time.Second)
	for m1.Stats().WebhookErrs == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if m1.Stats().WebhookErrs != 1 {
		t.Fatalf("first delivery did not fail: %+v", m1.Stats())
	}
	execsBefore := env.execs.Load()
	m1.Stop()
	j1.Close()

	m2, j2 := openManager(t, path, env.config())
	defer func() { m2.Stop(); j2.Close() }()
	waitWebhooks(t, m2, 1)
	if env.execs.Load() != execsBefore {
		t.Fatal("webhook redelivery re-ran the analysis")
	}
	if n := countOps(t, path, jb.ID, "notified"); n != 1 {
		t.Fatalf("%d notified records", n)
	}
}

// TestManagerConcurrentSubmit: many submitters racing workers under
// -race; every job converges and the journal stays consistent.
func TestManagerConcurrentSubmit(t *testing.T) {
	env := newEnv()
	for i := 0; i < 8; i++ {
		env.put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("img-%d", i)))
	}
	cfg := env.config()
	cfg.Workers = 4
	path := journalPath(t)
	m, j := openManager(t, path, cfg)
	defer func() { m.Stop(); j.Close() }()

	var wg sync.WaitGroup
	ids := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				jb, err := m.Submit("summary", fmt.Sprintf("k%d", g), "")
				if err != nil {
					t.Error(err)
					return
				}
				ids <- jb.ID
			}
		}(g)
	}
	wg.Wait()
	close(ids)
	for id := range ids {
		waitJob(t, m, id, StatusDone)
	}
	if st := m.Stats(); st.Accepted != 32 || st.Completed != 32 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSubmitTornJournalCrashes: a torn accept write is a crash — the
// manager must refuse the submission (the 202 was never durable) and
// stop dead, exactly as if the process died mid-fsync.
func TestSubmitTornJournalCrashes(t *testing.T) {
	env := newEnv()
	env.put("k1", []byte("trace-image"))
	path := journalPath(t)
	plan := &faults.ServicePlan{Torns: []faults.TornRule{{Nth: 1, Keep: -1}}}
	j, recs, st, err := OpenJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	m := New(j, recs, st, env.config())
	m.Start()
	defer func() { m.Stop(); j.Close() }()

	if _, err := m.Submit("summary", "k1", ""); !errors.Is(err, ErrCrashed) {
		t.Fatalf("submit over torn journal: err = %v, want ErrCrashed", err)
	}
	if !m.Crashed() {
		t.Fatal("manager not crashed after torn write")
	}
	// Crashed managers refuse everything from then on.
	if _, err := m.Submit("summary", "k1", ""); !errors.Is(err, ErrCrashed) {
		t.Fatalf("submit after crash: err = %v, want ErrCrashed", err)
	}
}

// TestSubmitJournalErrorTolerated: a plain write error (disk full, not
// torn) is durability loss but not a crash — Submit reports it, the
// job is withdrawn, and the manager keeps serving.
func TestSubmitJournalErrorTolerated(t *testing.T) {
	env := newEnv()
	env.put("k1", []byte("trace-image"))
	path := journalPath(t)
	plan := &faults.ServicePlan{DiskFulls: []faults.DiskFullRule{{After: 0, Count: faults.EveryTime}}}
	j, recs, st, err := OpenJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	m := New(j, recs, st, env.config())
	m.Start()
	defer func() { m.Stop(); j.Close() }()

	if _, err := m.Submit("summary", "k1", ""); err == nil || errors.Is(err, ErrCrashed) {
		t.Fatalf("submit with failing journal: err = %v, want plain error", err)
	}
	if m.Crashed() {
		t.Fatal("disk-full journal must not read as a crash")
	}
	if st := m.Stats(); st.JournalErrs == 0 {
		t.Fatal("journal error not counted")
	}
	if got := len(m.Jobs()); got != 0 {
		t.Fatalf("non-durable job left in table: %d", got)
	}
}

// TestWebhookRedeliveryAfterReplay: the process died between the done
// record and the webhook (no failed-delivery attempt on record, just a
// missing "notified"). The next boot must deliver the hook exactly once
// without re-running the analysis, and the boot after that must stay
// completely quiet.
func TestWebhookRedeliveryAfterReplay(t *testing.T) {
	path := journalPath(t)
	j, _, _, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-write the crash-consistent journal: accepted, started, done —
	// and then the lights went out before deliverWebhook ran.
	for _, rec := range []Record{
		{Op: "accept", ID: "j-dead", Kind: "summary", Key: "k1",
			Webhook: "http://hook", MaxAttempts: 3},
		{Op: "start", ID: "j-dead", Attempt: 1},
		{Op: "done", ID: "j-dead", CRC: 0xdeadbeef},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	env := newEnv()
	env.put("k1", []byte("img"))
	m2, j2 := openManager(t, path, env.config())
	waitWebhooks(t, m2, 1)
	jb, ok := m2.Get("j-dead")
	if !ok || jb.Status != StatusDone || jb.ResultCRC != 0xdeadbeef {
		t.Fatalf("replayed job = %+v", jb)
	}
	if !jb.Replayed {
		t.Fatal("job not marked replayed")
	}
	if got := env.execs.Load(); got != 0 {
		t.Fatalf("redelivery ran the analysis %d times, want 0", got)
	}
	m2.Stop()
	j2.Close()
	if n := countOps(t, path, "j-dead", "notified"); n != 1 {
		t.Fatalf("%d notified records, want 1", n)
	}

	// Third boot: the notified record is on disk, so nothing replays.
	m3, j3 := openManager(t, path, env.config())
	defer func() { m3.Stop(); j3.Close() }()
	time.Sleep(20 * time.Millisecond) // give a buggy redelivery time to fire
	if st := m3.Stats(); st.WebhooksOK != 0 || st.Replayed != 0 {
		t.Fatalf("post-notified boot replayed work: %+v", st)
	}
	if got := env.execs.Load(); got != 0 {
		t.Fatalf("post-notified boot ran the analysis %d times, want 0", got)
	}
}
