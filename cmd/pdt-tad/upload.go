package main

// Chunked, resumable trace upload with live analysis. A client creates
// an upload session, streams the trace in as many POSTs as it likes
// (each optionally gzip-compressed), and can read a running summary at
// any point — the analyzer's incremental kernels fold each chunk as it
// arrives, so memory stays bounded by the stream window no matter how
// large the trace grows. The session hashes the decompressed bytes on
// the fly; on completion the finished artifacts are adopted into the
// content-addressed cache under that key, so a later whole-body POST of
// the same trace is a cache hit.
//
//	POST   /v1/upload                  -> 201 {"id", "offset": 0}
//	POST   /v1/upload/{id}?offset=N    append chunk; 409 + current offset
//	                                   on mismatch (resume point)
//	POST   /v1/upload/{id}/complete    -> final summary + content key
//	DELETE /v1/upload/{id}             abort and free the session
//	GET    /v1/live/{id}               running summary snapshot

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/analyzer/kinds"
)

// uploadSession is one in-progress chunked upload: the streaming loader
// holding the incremental analysis, the running content hash, and the
// resume offset (decompressed bytes accepted so far).
type uploadSession struct {
	mu     sync.Mutex
	id     string
	loader *analyzer.StreamLoader
	hash   hash.Hash
	offset int64
	last   time.Time
	// failed latches the first fatal stream error; every later append or
	// complete reports it (the trace bytes are corrupt — resending the
	// same data cannot help).
	failed error
	// result is set once /complete ran; /v1/live serves it afterwards.
	result *analyzer.StreamResult
	key    cache.Key
}

// uploads is the session registry: bounded population, idle expiry swept
// lazily on every operation (no janitor goroutine to leak).
type uploads struct {
	mu  sync.Mutex
	m   map[string]*uploadSession
	max int
	ttl time.Duration
}

func newUploads(max int, ttl time.Duration) *uploads {
	return &uploads{m: map[string]*uploadSession{}, max: max, ttl: ttl}
}

// sweep drops sessions idle past the TTL. Callers hold u.mu.
func (u *uploads) sweep(now time.Time) {
	for id, sess := range u.m {
		sess.mu.Lock()
		idle := now.Sub(sess.last)
		sess.mu.Unlock()
		if idle > u.ttl {
			delete(u.m, id)
		}
	}
}

func (u *uploads) create(sess *uploadSession) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.sweep(time.Now())
	if len(u.m) >= u.max {
		return fmt.Errorf("upload sessions exhausted (%d active; retry or complete one)", len(u.m))
	}
	u.m[sess.id] = sess
	return nil
}

func (u *uploads) get(id string) (*uploadSession, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.sweep(time.Now())
	sess, ok := u.m[id]
	return sess, ok
}

func (u *uploads) remove(id string) {
	u.mu.Lock()
	defer u.mu.Unlock()
	delete(u.m, id)
}

func (u *uploads) active() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.m)
}

// uploadLimits derives the streaming loader's admission control from the
// service config: chunked uploads may legitimately exceed the per-request
// body cap — that is their point — so the file cap is the dedicated
// upload budget instead.
func (s *server) uploadLimits() analyzer.Limits {
	lim := s.cfg.limits
	lim.MaxFileBytes = s.cfg.maxUploadBytes
	return lim
}

// handleUploadCreate opens a session (POST /v1/upload).
func (s *server) handleUploadCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", s.retryAfter())
		s.writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	sess := &uploadSession{
		id: hex.EncodeToString(raw[:]),
		loader: analyzer.NewStreamLoader(analyzer.StreamOptions{
			Limits:   s.uploadLimits(),
			Validate: true,
		}),
		hash: sha256.New(),
		last: time.Now(),
	}
	if err := s.uploads.create(sess); err != nil {
		w.Header().Set("Retry-After", s.retryAfter())
		s.writeError(w, http.StatusTooManyRequests, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(map[string]any{"id": sess.id, "offset": 0})
}

// handleUploadAppend feeds one chunk into the session's streaming loader
// (POST /v1/upload/{id}?offset=N). A declared length over the body cap is
// a 413 before a byte reaches the session. The body may be
// gzip-compressed; it is inflated straight into the loader in small
// slices, with the per-request decompressed cap and the loader's
// cumulative budgets enforced mid-inflate — a gzip bomb dies at the first
// slice past a cap, never fully inflated in memory. An offset mismatch is
// a 409 carrying the session's current offset: the client re-slices its
// data there and resumes (append is otherwise not idempotent, so the
// check is mandatory whenever ?offset is supplied).
func (s *server) handleUploadAppend(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.uploads.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, errors.New("unknown or expired upload session"))
		return
	}
	release, err := s.admit(r.Context())
	if err != nil {
		w.Header().Set("Retry-After", s.retryAfter())
		status := http.StatusTooManyRequests
		if !errors.Is(err, errShed) {
			status = http.StatusGatewayTimeout
		}
		s.writeError(w, status, err)
		return
	}
	defer release()

	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.last = time.Now()
	if sess.result != nil {
		s.writeError(w, http.StatusConflict, errors.New("upload already completed"))
		return
	}
	if sess.failed != nil {
		s.writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("upload failed earlier: %w", sess.failed))
		return
	}
	if off := r.URL.Query().Get("offset"); off != "" {
		want, err := strconv.ParseInt(off, 10, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad offset: %w", err))
			return
		}
		if want != sess.offset {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"error":  "offset mismatch",
				"offset": sess.offset,
			})
			return
		}
	}

	body, _, serr := s.openBody(w, r)
	if serr != nil {
		s.writeError(w, serr.status, serr.err)
		return
	}
	buf := make([]byte, 256<<10)
	for {
		n, rerr := body.Read(buf)
		var capped *statusError
		if errors.As(rerr, &capped) {
			// Mid-inflate cap: the decompressed chunk outgrew the body
			// limit on this read; refuse it before inflating the rest.
			s.writeError(w, capped.status, capped.err)
			return
		}
		if n > 0 {
			if _, werr := sess.loader.Write(buf[:n]); werr != nil {
				if errors.Is(werr, analyzer.ErrLimitExceeded) {
					sess.failed = werr
					s.writeError(w, http.StatusRequestEntityTooLarge, werr)
					return
				}
				sess.failed = werr
				s.writeError(w, http.StatusUnprocessableEntity, werr)
				return
			}
			sess.hash.Write(buf[:n])
			sess.offset += int64(n)
		}
		if rerr != nil {
			if rerr == io.EOF {
				break
			}
			// An undeclared body past the cap, or a transport or gzip
			// failure mid-chunk: whatever bytes were accepted stay
			// accepted; the client resumes from the offset the next 409
			// reports.
			se := bodyError(rerr, "reading chunk")
			s.writeError(w, se.status, se.err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"offset": sess.offset,
		"events": sess.loader.Events(),
	})
}

// handleUploadComplete seals the stream, renders the final analysis, and
// adopts the artifacts into the content-addressed cache under the
// running hash — the same key a whole-body POST of these bytes computes,
// so the upload pre-warms /v1/summary and /v1/profile
// (POST /v1/upload/{id}/complete).
func (s *server) handleUploadComplete(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.uploads.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, errors.New("unknown or expired upload session"))
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.last = time.Now()
	if sess.failed != nil {
		s.uploads.remove(sess.id)
		s.writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("upload failed earlier: %w", sess.failed))
		return
	}
	if sess.result == nil {
		res, err := sess.loader.Finish()
		if err != nil {
			sess.failed = err
			s.uploads.remove(sess.id)
			s.writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		sess.result = res
		copy(sess.key[:], sess.hash.Sum(nil))
		if s.cache != nil && res.Complete && !res.Trace.Truncated {
			s.adoptStreamArtifacts(sess.key, res)
		}
	}
	doc, err := liveDoc(sess, sess.result, true)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(doc)
}

// handleUploadAbort frees a session (DELETE /v1/upload/{id}).
func (s *server) handleUploadAbort(w http.ResponseWriter, r *http.Request) {
	s.uploads.remove(r.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
}

// handleLive serves the running summary of an in-flight upload
// (GET /v1/live/{id}): a consistent snapshot of every incremental
// kernel, identical field for field to what a batch /v1/summary of the
// bytes seen so far would report.
func (s *server) handleLive(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.uploads.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, errors.New("unknown or expired upload session"))
		return
	}
	sess.mu.Lock()
	sess.last = time.Now()
	res := sess.result
	final := res != nil
	if !final {
		res = sess.loader.Snapshot()
	}
	doc, err := liveDoc(sess, res, final)
	sess.mu.Unlock()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(doc)
}

// liveDoc renders the envelope shared by /v1/live and /complete: upload
// progress plus the standard summary document. Callers hold sess.mu.
func liveDoc(sess *uploadSession, res *analyzer.StreamResult, final bool) ([]byte, error) {
	var sumBuf bytes.Buffer
	if err := analyzer.WriteJSON(res.Trace, res.Summary, &sumBuf); err != nil {
		return nil, err
	}
	out := struct {
		ID        string          `json:"id"`
		Offset    int64           `json:"offset"`
		Events    int64           `json:"events"`
		Final     bool            `json:"final"`
		Complete  bool            `json:"complete"`
		Truncated bool            `json:"truncated"`
		Key       string          `json:"key,omitempty"`
		Summary   json.RawMessage `json:"summary"`
	}{
		ID: sess.id, Offset: sess.offset, Events: res.Events,
		Final: final, Complete: res.Complete, Truncated: res.Trace.Truncated,
		Summary: json.RawMessage(sumBuf.Bytes()),
	}
	if final {
		out.Key = hex.EncodeToString(sess.key[:])
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// adoptStreamArtifacts installs, under the upload's content key, the
// artifact of every kind the stream folds (kinds.Kind.FromStream): the
// kind's own JSON renderer over the stream's value, so exactly the bytes
// a batch POST would produce (the streaming kernels are batch-identical,
// so the cache cannot tell the difference). The other kinds stay
// uncached: their batch forms need the whole trace in memory.
func (s *server) adoptStreamArtifacts(key cache.Key, res *analyzer.StreamResult) {
	var buf bytes.Buffer
	for _, k := range kinds.All {
		if k.FromStream == nil {
			continue
		}
		buf.Reset()
		if err := k.JSON(res.Trace, k.FromStream(res), &buf); err == nil {
			s.cache.AdoptArtifact(key, k.Name, bytes.Clone(buf.Bytes()))
		}
	}
}
