package main

// The async job API. POST /v1/jobs accepts a trace upload plus an
// analysis kind and answers 202 with a job id; the work runs in the job
// manager's worker pool, journaled so a crash between the 202 and the
// result re-runs the job on the next boot. Without a -state-dir (or with
// the disk tier down) the endpoint degrades gracefully: the analysis
// runs synchronously in the request and the response is a plain 200,
// flagged with X-Pdt-Mode: sync.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/faults"
	"github.com/celltrace/pdt/internal/jobs"
)

// setupState wires the durable tier under cfg.stateDir: the disk-backed
// cache tier, the job journal, and the job manager (including journal
// replay — interrupted jobs restart here). A no-op when stateDir is
// empty. Call once, before the server starts handling requests.
func (s *server) setupState() error {
	if s.cfg.chaosSpec != "" {
		plan, err := faults.ParseService(s.cfg.chaosSpec)
		if err != nil {
			return err
		}
		s.chaos = plan
		s.log.Warn("chaos plan armed", "plan", plan.String())
	}
	if err := s.setupCluster(); err != nil {
		return err
	}
	if s.cfg.stateDir == "" {
		return nil
	}
	if s.cache == nil {
		return errors.New("-state-dir requires the cache to be enabled")
	}
	if err := os.MkdirAll(s.cfg.stateDir, 0o755); err != nil {
		return fmt.Errorf("state dir: %w", err)
	}
	tier, err := cache.OpenDiskTier(filepath.Join(s.cfg.stateDir, "objects"), s.cfg.diskCacheBytes, s.disturber())
	if err != nil {
		return err
	}
	s.cache.AttachDisk(tier)
	if st := tier.Stats(); st.Rehydrated > 0 {
		s.log.Info("disk tier rehydrated", "objects", st.Rehydrated, "bytes", st.Bytes)
	}

	j, recs, st, err := jobs.OpenJournal(filepath.Join(s.cfg.stateDir, "jobs.journal"), s.disturber())
	if err != nil {
		return err
	}
	s.journal = j
	if st.Damaged > 0 {
		s.log.Warn("job journal damage dropped", "lines", st.Damaged)
	}
	jc := s.cfg.jobs
	jc.Fetch = func(key string) ([]byte, bool) {
		k, ok := cache.ParseKey(key)
		if !ok {
			return nil, false
		}
		return s.cache.RawImage(k)
	}
	jc.Exec = func(ctx context.Context, kind string, image []byte) ([]byte, error) {
		if s.cfg.requestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.requestTimeout)
			defer cancel()
		}
		defer s.mem.hold(int64(len(image)))()
		// Through the cluster-aware path: a job executing on a
		// non-owner replica peeks the owner's cache like a
		// synchronous request would.
		return s.artifact(ctx, kind, cache.ImageOf(image))
	}
	jc.Notify = notifyWebhook
	jc.Release = func(key string) {
		if k, ok := cache.ParseKey(key); ok {
			tier.Unpin(k)
		}
	}
	jc.PhaseHook = s.phaseHook()
	jc.Log = s.log
	s.jobs = jobs.New(j, recs, st, jc)
	// Replayed jobs were pinned by the process that accepted them; that
	// pin died with it. Re-pin before the workers start so the evictor
	// cannot drop an image a replay is about to need.
	replayed := 0
	for _, jb := range s.jobs.Jobs() {
		if jb.Terminal() {
			continue
		}
		if k, ok := cache.ParseKey(jb.Key); ok {
			tier.Pin(k)
		}
		replayed++
	}
	if replayed > 0 {
		s.log.Info("replaying interrupted jobs", "count", replayed)
	}
	s.jobs.Start()
	return nil
}

// closeState stops the job workers and closes the journal.
func (s *server) closeState() {
	if s.jobs != nil {
		s.jobs.Stop()
	}
	if s.journal != nil {
		_ = s.journal.Close()
	}
}

// disturber exposes the chaos plan to the disk tier and journal; nil
// when no plan is armed.
func (s *server) disturber() *faults.ServicePlan { return s.chaos }

// phaseHook translates the chaos plan's killphase directives into the
// job manager's crash seam.
func (s *server) phaseHook() func(id, phase string) error {
	if s.chaos == nil {
		return nil
	}
	return func(id, phase string) error {
		if s.chaos.Kill(phase) {
			s.log.Error("chaos: simulated kill", "job", id, "phase", phase)
			return fmt.Errorf("chaos kill at %s", phase)
		}
		return nil
	}
}

// notifyWebhook delivers a job document to its callback URL.
func notifyWebhook(url string, payload []byte) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode >= 300 {
		return fmt.Errorf("webhook: %s", resp.Status)
	}
	return nil
}

// asyncAvailable reports whether a job can be accepted durably right
// now; otherwise submissions degrade to synchronous execution.
func (s *server) asyncAvailable() bool {
	if s.jobs == nil || s.jobs.Crashed() {
		return false
	}
	if deg, _ := s.cache.Disk().Degraded(); deg {
		return false
	}
	return true
}

// handleSubmitJob accepts POST /v1/jobs?kind=summary[&webhook=URL] with
// the raw trace image as the body. On the durable path it persists the
// image to the disk tier, journals the acceptance, and answers 202 with
// the job document; when durability is unavailable it answers like the
// matching synchronous endpoint would, with X-Pdt-Mode: sync. Either way
// the upload is read only once admission control lets the request in,
// and counts toward the memory limit while it is held.
func (s *server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	kind := r.URL.Query().Get("kind")
	if kind == "" {
		kind = cache.KindSummary
	}
	if !cache.ValidKind(kind) {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("unknown analysis kind %q", kind))
		return
	}
	webhook := r.URL.Query().Get("webhook")
	if !s.asyncAvailable() {
		w.Header().Set("X-Pdt-Mode", "sync")
		analysis(s, kind, cache.ReadImage, s.renderKind(kind)).ServeHTTP(w, r)
		return
	}
	s.admitted(w, r, s.heldFor(r), func(ctx context.Context) {
		img, serr := readBody(s, w, r, cache.ReadImage)
		if serr != nil {
			s.writeError(w, serr.status, serr.err)
			return
		}
		s.submitJob(ctx, w, kind, webhook, img)
		// The image is on disk or answered from: the buffer is free.
		s.bodies.Put(img.Data())
	})
}

// submitJob makes an uploaded image durable and journals its job, or
// serves it synchronously when either step fails. It runs inside the
// submission's admission, whose slot the synchronous path reuses.
func (s *server) submitJob(ctx context.Context, w http.ResponseWriter, kind, webhook string, img cache.Image) {
	key := img.Key()
	tier := s.cache.Disk()
	// The image must be durable before the 202: a replayed job has no
	// request body to fall back on. A failed spill degrades this
	// request to the synchronous path instead of losing it.
	if err := tier.Put(key, cache.KindTrace, img.Data()); err != nil {
		s.log.Warn("job image spill failed, degrading to sync", "err", err)
		s.serveSync(ctx, w, kind, img)
		return
	}
	tier.Pin(key)
	jb, err := s.jobs.Submit(kind, key.String(), webhook)
	if err != nil {
		tier.Unpin(key)
		switch {
		case errors.Is(err, jobs.ErrBusy):
			w.Header().Set("Retry-After", s.retryAfter())
			s.writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, jobs.ErrCrashed):
			s.writeError(w, http.StatusServiceUnavailable, err)
		default:
			// The journal would not take the accept record; the job is
			// not durable, so don't pretend. Serve it synchronously.
			s.log.Warn("job journal rejected accept, degrading to sync", "err", err)
			s.serveSync(ctx, w, kind, img)
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+jb.ID)
	s.writeJSON(w, http.StatusAccepted, jb)
}

// serveSync answers an admitted job submission whose upload is already
// read and hashed synchronously, flagged X-Pdt-Mode: sync, with the
// analysis stack's error mapping, without reading or hashing the image
// again and without taking a second admission slot.
func (s *server) serveSync(ctx context.Context, w http.ResponseWriter, kind string, img cache.Image) {
	w.Header().Set("X-Pdt-Mode", "sync")
	s.respond(ctx, w, kind, func(ctx context.Context) ([]byte, error) {
		return s.artifact(ctx, kind, img)
	})
}

// handleGetJob serves GET /v1/jobs/{id}: the job document as JSON.
func (s *server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		s.writeError(w, http.StatusNotFound, errors.New("async jobs disabled (no -state-dir)"))
		return
	}
	jb, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	s.writeJSON(w, http.StatusOK, jb)
}

// handleJobResult serves GET /v1/jobs/{id}/result: the rendered artifact
// of a completed job, looked up by the job's key in the cache tiers, or
// recomputed from the durable trace image under admission control like
// any other analysis. 409 until the job is done; 410 if neither the
// artifact nor the trace image is left in the disk tier.
func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		s.writeError(w, http.StatusNotFound, errors.New("async jobs disabled (no -state-dir)"))
		return
	}
	jb, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	if jb.Status == jobs.StatusFailed {
		s.writeJSON(w, http.StatusConflict, jb)
		return
	}
	if jb.Status != jobs.StatusDone {
		w.Header().Set("Retry-After", s.retryAfter())
		s.writeJSON(w, http.StatusConflict, jb)
		return
	}
	key, ok := cache.ParseKey(jb.Key)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, errors.New("malformed job key"))
		return
	}
	if b, ok := s.cache.Peek(key, jb.Kind); ok {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
		return
	}
	s.admitted(w, r, 0, func(ctx context.Context) {
		img, ok := s.cache.RawImage(key)
		if !ok {
			s.writeError(w, http.StatusGone, errors.New("trace image evicted from the disk tier"))
			return
		}
		defer s.mem.hold(int64(len(img)))()
		s.respond(ctx, w, jb.Kind, func(ctx context.Context) ([]byte, error) {
			return s.cache.Artifact(ctx, img, jb.Kind, s.cfg.limits)
		})
	})
}

// writeJSON emits one JSON document with the given status.
func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
