package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"strings"
	"sync"
	"time"
)

// Job phases, in lifecycle order. A chaos plan's faults.KillRule names
// one of these; PhaseHook fires at each boundary.
const (
	PhaseAccept  = "accept"  // accept record journaled, before the 202 returns
	PhaseStart   = "start"   // start record journaled, before the analysis runs
	PhaseRender  = "render"  // analysis finished, before the done record
	PhaseDone    = "done"    // done record journaled, before the webhook
	PhaseWebhook = "webhook" // before the webhook callback is attempted
)

// Phases lists the job phases in lifecycle order.
var Phases = []string{PhaseAccept, PhaseStart, PhaseRender, PhaseDone, PhaseWebhook}

// Job statuses.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Job is the client-visible job document.
type Job struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	Key         string `json:"key"` // hex content address of the trace image
	Webhook     string `json:"webhook,omitempty"`
	Status      string `json:"status"`
	Attempts    int    `json:"attempts"`
	MaxAttempts int    `json:"maxAttempts"`
	Error       string `json:"error,omitempty"`
	ResultCRC   uint32 `json:"resultCrc,omitempty"`
	// Replayed marks a job re-adopted from the journal after a restart.
	Replayed bool `json:"replayed,omitempty"`

	notified bool
}

// Terminal reports whether the job has reached a final state.
func (jb *Job) Terminal() bool { return jb.Status == StatusDone || jb.Status == StatusFailed }

// Stats snapshots the manager counters.
type Stats struct {
	Accepted    uint64 `json:"accepted"`
	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`
	Retries     uint64 `json:"retries"`
	Replayed    int    `json:"replayed"`
	Queued      int    `json:"queued"`
	Running     int    `json:"running"`
	JournalErrs uint64 `json:"journalErrors"`
	Damaged     int    `json:"journalDamaged"`
	WebhooksOK  uint64 `json:"webhooksDelivered"`
	WebhookErrs uint64 `json:"webhookFailures"`
	Crashed     bool   `json:"crashed,omitempty"`
}

// ErrBusy is returned by Submit when the job queue is full.
var ErrBusy = errors.New("jobs: queue full")

// ErrCrashed is returned once the manager has simulated (or been told
// of) a process death; nothing is accepted or processed afterwards.
var ErrCrashed = errors.New("jobs: manager crashed")

// Config wires the manager to its environment. Fetch and Exec are
// required; everything else has a default.
type Config struct {
	// Workers is the analysis worker count (default 2). Job analyses
	// run here, not in HTTP handlers, so the async path's concurrency
	// adds to — and is bounded independently of — the sync path's.
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 64); Submit
	// returns ErrBusy beyond it.
	QueueDepth int
	// MaxAttempts is the per-job attempt budget (default 3).
	MaxAttempts int
	// BackoffBase/BackoffCap shape the capped exponential retry
	// backoff: attempt n waits min(Base<<(n-1), Cap).
	// Defaults 250ms / 5s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Fetch restores a trace image by hex content key (the disk tier).
	Fetch func(key string) ([]byte, bool)
	// Exec runs one analysis and returns the rendered artifact bytes.
	// It must be deterministic for a given (kind, image) — replay
	// convergence depends on it — and is expected to persist the
	// artifact itself (the cache's write-through does).
	Exec func(ctx context.Context, kind string, image []byte) ([]byte, error)
	// Notify delivers a webhook callback (nil disables delivery).
	Notify func(url string, payload []byte) error
	// Release is called once when a job reaches a terminal state (the
	// server unpins the trace image); may be nil.
	Release func(key string)
	// PhaseHook, when non-nil, fires at every phase boundary. A non-nil
	// error simulates a process kill at that instant: the manager stops
	// dead — no further journal writes, no further processing. The
	// daemon wires the chaos plan's kill rules here; tests wire
	// assertions.
	PhaseHook func(id, phase string) error
	Log       *slog.Logger
}

// Manager owns the job table, the worker pool, and the journal.
type Manager struct {
	cfg Config
	j   *Journal

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	queue  chan string
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	crashed     bool
	accepted    uint64
	completed   uint64
	failed      uint64
	retries     uint64
	replayed    int
	journalErrs uint64
	damaged     int
	webhooksOK  uint64
	webhookErrs uint64
}

// New builds a manager over an opened journal, adopting the replayed
// records: a job with an accept record but no terminal record is
// re-queued exactly once; a done job whose webhook was never delivered
// is re-queued for delivery only. Call Start to begin processing.
func New(j *Journal, replay []Record, st ReplayStats, cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 250 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 5 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:     cfg,
		j:       j,
		jobs:    map[string]*Job{},
		queue:   make(chan string, cfg.QueueDepth),
		ctx:     ctx,
		cancel:  cancel,
		damaged: st.Damaged,
	}
	for _, rec := range replay {
		m.adopt(rec)
	}
	for _, id := range m.order {
		jb := m.jobs[id]
		switch {
		case !jb.Terminal():
			jb.Status = StatusQueued
			jb.Replayed = true
			m.replayed++
			m.enqueue(id)
		case jb.Status == StatusDone && jb.Webhook != "" && !jb.notified:
			jb.Replayed = true
			m.replayed++
			m.enqueue(id) // webhook redelivery only
		case jb.Terminal() && cfg.Release != nil:
			cfg.Release(jb.Key)
		}
	}
	return m
}

// adopt folds one replayed record into the job table.
func (m *Manager) adopt(rec Record) {
	switch rec.Op {
	case "accept":
		if _, dup := m.jobs[rec.ID]; dup {
			return
		}
		maxA := rec.MaxAttempts
		if maxA <= 0 {
			maxA = m.cfg.MaxAttempts
		}
		m.jobs[rec.ID] = &Job{
			ID: rec.ID, Kind: rec.Kind, Key: rec.Key, Webhook: rec.Webhook,
			Status: StatusQueued, MaxAttempts: maxA,
		}
		m.order = append(m.order, rec.ID)
		return
	}
	jb := m.jobs[rec.ID]
	if jb == nil {
		return // transition for a job whose accept record was damaged
	}
	switch rec.Op {
	case "start":
		if rec.Attempt > jb.Attempts {
			jb.Attempts = rec.Attempt
		}
	case "fail":
		jb.Error = rec.Err
	case "giveup":
		jb.Status = StatusFailed
		if rec.Err != "" {
			jb.Error = rec.Err
		}
	case "done":
		jb.Status = StatusDone
		jb.ResultCRC = rec.CRC
		jb.Error = ""
	case "notified":
		jb.notified = true
	}
}

// Start spawns the workers.
func (m *Manager) Start() {
	for i := 0; i < m.cfg.Workers; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for {
				select {
				case <-m.ctx.Done():
					return
				case id := <-m.queue:
					m.process(id)
				}
			}
		}()
	}
}

// Stop halts the workers and waits for in-flight work to end. It does
// not close the journal.
func (m *Manager) Stop() {
	m.cancel()
	m.wg.Wait()
}

// Crashed reports whether a phase hook simulated a process kill.
func (m *Manager) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// Submit accepts a new job: the accept record is journaled and fsync'd
// BEFORE Submit returns, so a 202 means the job survives any subsequent
// crash. The returned Job is a snapshot.
func (m *Manager) Submit(kind, key, webhook string) (Job, error) {
	m.mu.Lock()
	if m.crashed {
		m.mu.Unlock()
		return Job{}, ErrCrashed
	}
	if len(m.queue) >= cap(m.queue) {
		m.mu.Unlock()
		return Job{}, ErrBusy
	}
	id := newID()
	jb := &Job{
		ID: id, Kind: kind, Key: key, Webhook: webhook,
		Status: StatusQueued, MaxAttempts: m.cfg.MaxAttempts,
	}
	m.jobs[id] = jb
	m.order = append(m.order, id)
	m.accepted++
	snap := *jb
	m.mu.Unlock()

	if err := m.journal(Record{
		Op: "accept", ID: id, Kind: kind, Key: key,
		Webhook: webhook, MaxAttempts: jb.MaxAttempts,
	}); err != nil {
		// Not durable: withdraw the job rather than lie with a 202.
		m.mu.Lock()
		delete(m.jobs, id)
		if n := len(m.order); n > 0 && m.order[n-1] == id {
			m.order = m.order[:n-1]
		}
		m.mu.Unlock()
		return Job{}, err
	}
	if m.phase(id, PhaseAccept) {
		// Killed after the journal fsync: the job exists durably but
		// the client never hears its 202 — replay must still run it.
		return Job{}, ErrCrashed
	}
	m.enqueue(id)
	return snap, nil
}

// Get snapshots one job.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	jb, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *jb, true
}

// Jobs snapshots every job in acceptance order.
func (m *Manager) Jobs() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, *m.jobs[id])
	}
	return out
}

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	running := 0
	for _, jb := range m.jobs {
		if jb.Status == StatusRunning {
			running++
		}
	}
	return Stats{
		Accepted: m.accepted, Completed: m.completed, Failed: m.failed,
		Retries: m.retries, Replayed: m.replayed,
		Queued: len(m.queue), Running: running,
		JournalErrs: m.journalErrs, Damaged: m.damaged,
		WebhooksOK: m.webhooksOK, WebhookErrs: m.webhookErrs,
		Crashed: m.crashed,
	}
}

// enqueue feeds the worker queue; the capacity check in Submit plus the
// bounded retry population keep this from blocking in practice, but a
// full queue drops to a goroutine so no caller ever deadlocks.
func (m *Manager) enqueue(id string) {
	select {
	case m.queue <- id:
	default:
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			select {
			case m.queue <- id:
			case <-m.ctx.Done():
			}
		}()
	}
}

// process runs one attempt of one job (or just its webhook redelivery).
func (m *Manager) process(id string) {
	m.mu.Lock()
	jb := m.jobs[id]
	if jb == nil || m.crashed {
		m.mu.Unlock()
		return
	}
	if jb.Status == StatusDone {
		// Replayed for webhook redelivery only.
		needsHook := jb.Webhook != "" && !jb.notified
		m.mu.Unlock()
		if needsHook {
			m.deliverWebhook(id)
		}
		return
	}
	if jb.Status == StatusFailed {
		m.mu.Unlock()
		return
	}
	jb.Status = StatusRunning
	jb.Attempts++
	attempt := jb.Attempts
	kind, key := jb.Kind, jb.Key
	m.mu.Unlock()

	if err := m.journal(Record{Op: "start", ID: id, Attempt: attempt}); errors.Is(err, ErrCrashed) {
		return
	}
	if m.phase(id, PhaseStart) {
		return
	}

	img, ok := m.cfg.Fetch(key)
	if !ok {
		// The trace image is gone (disk loss past the CRC's reach):
		// retrying cannot help, fail terminally.
		m.giveup(id, fmt.Sprintf("trace image %s unavailable", key))
		return
	}
	out, err := m.cfg.Exec(m.ctx, kind, img)
	if err != nil {
		if m.ctx.Err() != nil {
			// Shutdown, not failure: leave the job for the next boot's
			// replay (the start record is already journaled).
			m.mu.Lock()
			jb.Status = StatusQueued
			m.mu.Unlock()
			return
		}
		m.retryOrGiveup(id, attempt, err)
		return
	}
	if m.phase(id, PhaseRender) {
		return
	}
	if err := m.journal(Record{Op: "done", ID: id, CRC: crc32.ChecksumIEEE(out)}); errors.Is(err, ErrCrashed) {
		return
	}
	m.mu.Lock()
	jb.Status = StatusDone
	jb.ResultCRC = crc32.ChecksumIEEE(out)
	jb.Error = ""
	m.completed++
	webhook := jb.Webhook
	m.mu.Unlock()
	if m.cfg.Release != nil {
		m.cfg.Release(key)
	}
	if m.phase(id, PhaseDone) {
		return
	}
	if webhook != "" {
		m.deliverWebhook(id)
	}
}

// retryOrGiveup journals the failed attempt and either schedules the
// next one after a capped exponential backoff or fails the job.
func (m *Manager) retryOrGiveup(id string, attempt int, cause error) {
	_ = m.journal(Record{Op: "fail", ID: id, Attempt: attempt, Err: cause.Error()})
	m.mu.Lock()
	jb := m.jobs[id]
	if jb == nil || m.crashed {
		m.mu.Unlock()
		return
	}
	jb.Error = cause.Error()
	budget := jb.MaxAttempts
	m.mu.Unlock()
	if attempt >= budget {
		m.giveup(id, cause.Error())
		return
	}
	backoff := m.cfg.BackoffBase << (attempt - 1)
	if backoff > m.cfg.BackoffCap || backoff <= 0 {
		backoff = m.cfg.BackoffCap
	}
	m.mu.Lock()
	jb.Status = StatusQueued
	m.retries++
	m.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		select {
		case <-time.After(backoff):
			m.enqueue(id)
		case <-m.ctx.Done():
		}
	}()
}

// giveup fails a job terminally.
func (m *Manager) giveup(id, cause string) {
	_ = m.journal(Record{Op: "giveup", ID: id, Err: cause})
	m.mu.Lock()
	jb := m.jobs[id]
	if jb == nil {
		m.mu.Unlock()
		return
	}
	jb.Status = StatusFailed
	jb.Error = cause
	m.failed++
	key, webhook := jb.Key, jb.Webhook
	m.mu.Unlock()
	if m.cfg.Release != nil {
		m.cfg.Release(key)
	}
	if webhook != "" {
		m.deliverWebhook(id)
	}
}

// deliverWebhook posts the job document to its callback URL and
// journals the delivery so a restart does not re-notify.
func (m *Manager) deliverWebhook(id string) {
	if m.cfg.Notify == nil {
		return
	}
	if m.phase(id, PhaseWebhook) {
		return
	}
	jb, ok := m.Get(id)
	if !ok || jb.Webhook == "" {
		return
	}
	payload, err := json.Marshal(jb)
	if err != nil {
		return
	}
	if err := m.cfg.Notify(jb.Webhook, payload); err != nil {
		m.mu.Lock()
		m.webhookErrs++
		m.mu.Unlock()
		m.cfg.Log.Warn("webhook delivery failed", "job", id, "url", jb.Webhook, "err", err)
		return
	}
	m.mu.Lock()
	m.webhooksOK++
	if j := m.jobs[id]; j != nil {
		j.notified = true
	}
	m.mu.Unlock()
	_ = m.journal(Record{Op: "notified", ID: id})
}

// journal appends one record, translating durability loss into policy:
// a torn write or a disabled journal is a crash (the manager stops
// dead, like the process it stands in for); any other error is counted
// and tolerated — the job table stays correct in memory and replay
// will re-run anything the journal missed.
func (m *Manager) journal(rec Record) error {
	err := m.j.Append(rec)
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrJournalDisabled) {
		return ErrCrashed
	}
	if isTorn(err) {
		m.crash()
		return ErrCrashed
	}
	m.mu.Lock()
	m.journalErrs++
	m.mu.Unlock()
	m.cfg.Log.Warn("journal append failed", "op", rec.Op, "job", rec.ID, "err", err)
	return err
}

// phase fires the phase hook; true means "the process just died".
func (m *Manager) phase(id, ph string) bool {
	if m.cfg.PhaseHook == nil {
		return false
	}
	if err := m.cfg.PhaseHook(id, ph); err != nil {
		m.crash()
		return true
	}
	return false
}

// crash simulates the process dying right now: the journal refuses all
// further writes, workers stop, nothing else is observable.
func (m *Manager) crash() {
	m.j.Disable()
	m.mu.Lock()
	m.crashed = true
	m.mu.Unlock()
	m.cancel()
}

// isTorn matches the injected torn-write error without importing the
// faults package (which would be an upward dependency for a fault that
// can also be real).
func isTorn(err error) bool {
	return err != nil && strings.Contains(err.Error(), "torn write")
}

// newID mints a job ID: 10 random bytes, hex, "j-" prefix.
func newID() string {
	var b [10]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("j-%d", time.Now().UnixNano())
	}
	return "j-" + hex.EncodeToString(b[:])
}
