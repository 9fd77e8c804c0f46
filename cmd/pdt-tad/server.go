package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/cluster"
	"github.com/celltrace/pdt/internal/faults"
	"github.com/celltrace/pdt/internal/jobs"
	"github.com/celltrace/pdt/internal/spare"
)

// config collects the service settings. Those that size the daemon to
// its host or place it in a deployment are flags (see flags); the job
// and peer retry policies keep their packages' defaults.
type config struct {
	addr string
	// requestTimeout bounds one analysis end to end (read + decode +
	// render); expiry maps to 504.
	requestTimeout time.Duration
	// maxBody caps the request body via http.MaxBytesReader; larger
	// uploads are rejected with 413 before the analyzer sees them.
	maxBody int64
	// maxConcurrent analyses run at once; up to maxQueue more wait their
	// turn and anything beyond that is shed with 429.
	maxConcurrent int
	maxQueue      int
	// drain bounds the graceful shutdown after SIGTERM/SIGINT.
	drain time.Duration
	// limits is the admission control handed to the analyzer.
	limits analyzer.Limits
	// cacheBytes/cacheEntries bound the content-addressed trace cache
	// (0 = unbounded on that axis); both 0 via flags disables it and
	// every request re-analyzes from scratch.
	cacheBytes   int64
	cacheEntries int
	// stateDir, when set, makes the daemon durable: a disk-backed cache
	// tier under stateDir/objects and a job journal at
	// stateDir/jobs.journal. Empty = memory-only; the async job API
	// degrades to synchronous execution.
	stateDir string
	// diskCacheBytes bounds the disk tier (0 = unbounded).
	diskCacheBytes int64
	// jobs is the async job manager's worker count and retry policy;
	// setupState adds the hooks. A zero field takes internal/jobs'
	// default.
	jobs jobs.Config
	// chaosSpec is a faults.ParseService plan injected into the disk
	// tier, the journal, the job phase hooks, and the peer transport
	// (test harness only).
	chaosSpec string
	// peersSpec/selfName enable cluster mode: a comma-separated
	// name=URL replica list and this replica's name in it. Empty =
	// single-node.
	peersSpec string
	selfName  string
	// peer bounds one peer fetch: per-call deadline, call budget,
	// jittered backoff and the per-peer circuit breaker; setupCluster
	// adds the ring. A zero field takes internal/cluster's default.
	peer cluster.Config
	// maxUploads bounds concurrent chunked-upload sessions (429 beyond);
	// uploadTTL expires sessions idle longer than this; maxUploadBytes
	// caps one streamed trace's total decompressed size — deliberately
	// separate from maxBody, which stays the per-request cap.
	maxUploads     int
	uploadTTL      time.Duration
	maxUploadBytes int64
}

func defaultConfig() config {
	return config{
		addr:           "127.0.0.1:8329",
		requestTimeout: 30 * time.Second,
		maxBody:        64 << 20,
		maxConcurrent:  4,
		maxQueue:       8,
		drain:          20 * time.Second,
		limits:         analyzer.DefaultServiceLimits(),
		cacheBytes:     256 << 20,
		diskCacheBytes: 1 << 30,
		maxUploads:     8,
		uploadTTL:      2 * time.Minute,
		maxUploadBytes: 256 << 20,
	}
}

// server is the trace-analysis daemon: a handler stack over the analyzer
// with admission control, load shedding, and health/readiness probes.
type server struct {
	cfg config
	log *slog.Logger
	// slots is the concurrency semaphore; queue bounds how many requests
	// may block waiting for a slot.
	slots    chan struct{}
	queue    chan struct{}
	draining atomic.Bool
	// cache is the content-addressed trace cache shared by the analysis
	// endpoints; nil when disabled (every request analyzes from scratch,
	// see traces).
	cache *cache.Cache
	// jobs/journal are the async job manager and its durable journal;
	// nil without -state-dir (the job API then runs synchronously).
	jobs    *jobs.Manager
	journal *jobs.Journal
	// chaos is the parsed fault-injection plan; nil without -chaos.
	chaos *faults.ServicePlan
	// cluster is the consistent-hash ring client; nil without -peers.
	// clusterFallbacks counts requests computed locally because the
	// key's owner replica was unreachable.
	cluster          *cluster.Client
	clusterFallbacks atomic.Uint64
	// avgNanos is an EWMA of recent analysis durations, feeding the
	// derived Retry-After on 429/504 responses.
	avgNanos atomic.Int64
	// analysisHook, when non-nil, runs inside each analysis handler after
	// admission (test seam for panic and saturation tests).
	analysisHook func()
	// uploads is the chunked-upload session registry.
	uploads *uploads
	// bodies is the free list analysis requests read their bodies into:
	// at most one buffer per admission slot, bodyPoolBytes in all.
	bodies *spare.List[byte]
	// mem raises the runtime's soft memory limit while trace images are
	// analysed (nil when the daemon sets no limit); memoryLimitSource
	// names what set the limit: "cache-bytes", "GOMEMLIMIT" or "none"
	// (see memoryLimit).
	mem               *memLimit
	memoryLimitSource string
}

// Every analysis request reads its whole body into one buffer; without
// reuse the runtime hands out, and zeroes, a fresh one per request — on
// a warm hit the largest cost after the SHA-256. A server keeps the
// buffers of finished requests on a small free list instead.
//
// bodyPoolBytes bounds the bytes that list keeps: four 4 MiB buffers,
// one per default admission slot, each large enough for the benchmark's
// 3 MB trace. A buffer larger than this is dropped after its request,
// so one near-cap upload is never pinned.
const bodyPoolBytes = 16 << 20

func newServer(cfg config, log *slog.Logger) *server {
	if cfg.maxConcurrent < 1 {
		cfg.maxConcurrent = 1
	}
	if cfg.maxQueue < 0 {
		cfg.maxQueue = 0
	}
	s := &server{
		cfg:               cfg,
		log:               log,
		slots:             make(chan struct{}, cfg.maxConcurrent),
		queue:             make(chan struct{}, cfg.maxQueue),
		bodies:            spare.New[byte](cfg.maxConcurrent, spare.NewBudget(bodyPoolBytes)),
		memoryLimitSource: "none",
	}
	if cfg.cacheBytes > 0 || cfg.cacheEntries > 0 {
		s.cache = cache.New(cfg.cacheEntries, cfg.cacheBytes)
	}
	if s.cfg.maxUploads < 1 {
		s.cfg.maxUploads = 1
	}
	if s.cfg.uploadTTL <= 0 {
		s.cfg.uploadTTL = defaultConfig().uploadTTL
	}
	s.uploads = newUploads(s.cfg.maxUploads, s.cfg.uploadTTL)
	return s
}

// errShed signals that both the semaphore and the wait queue are full.
var errShed = errors.New("pdt-tad: saturated, request shed")

// admit acquires an analysis slot, waiting in the bounded queue when all
// slots are busy. It returns the release func, or errShed when the queue
// is full too, or ctx.Err() when the deadline fires while queued.
func (s *server) admit(ctx context.Context) (release func(), err error) {
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, nil
	default:
	}
	select {
	case s.queue <- struct{}{}:
	default:
		return nil, errShed
	}
	defer func() { <-s.queue }()
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// handler builds the full middleware stack.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	for _, kind := range cache.AnalysisKinds {
		mux.Handle("POST /v1/"+kind, analysis(s, kind, cache.ReadImage, s.renderKind(kind)))
	}
	mux.Handle("POST /v1/diff", analysis(s, "diff", readRaw, s.renderDiff))
	mux.HandleFunc("POST /v1/upload", s.handleUploadCreate)
	mux.HandleFunc("POST /v1/upload/{id}", s.handleUploadAppend)
	mux.HandleFunc("POST /v1/upload/{id}/complete", s.handleUploadComplete)
	mux.HandleFunc("DELETE /v1/upload/{id}", s.handleUploadAbort)
	mux.HandleFunc("GET /v1/live/{id}", s.handleLive)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/cluster/artifact/{key}/{kind}", s.handleClusterArtifact)
	return s.logRequests(s.recoverPanics(gzipResponses(mux)))
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports 503 once a drain has begun so load balancers stop
// routing new work here while in-flight requests finish. A failing disk
// tier or a dead job manager does not fail readiness — the synchronous
// path still works — but the body says "degraded" so operators and the
// chaos harness can see the durable tier is out.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if reason := s.degradedReason(); reason != "" {
		fmt.Fprintln(w, "degraded:", reason)
		return
	}
	fmt.Fprintln(w, "ready")
}

// degradedReason reports why a durable or distributed tier is
// unavailable ("" = everything is healthy or was never configured).
// Degraded is informational, not a readiness failure: the synchronous
// local path still serves every request.
func (s *server) degradedReason() string {
	if s.jobs != nil && s.jobs.Crashed() {
		return "job manager stopped"
	}
	if s.cache != nil && s.cache.Disk() != nil {
		if deg, errText := s.cache.Disk().Degraded(); deg {
			return "disk tier: " + errText
		}
	}
	if s.cluster != nil {
		if deg, reason := s.cluster.Degraded(); deg {
			return reason
		}
	}
	return ""
}

// retryAfter derives the Retry-After advice for shed work from actual
// load: the backlog ahead of a retry (running + queued analyses, plus
// itself) over the service rate, using an EWMA of recent analysis
// durations. Clamped to [1s, 60s] so the advice is always sane even
// with no samples or a pathological backlog.
func (s *server) retryAfter() string {
	avg := time.Duration(s.avgNanos.Load())
	if avg <= 0 {
		avg = 500 * time.Millisecond
	}
	backlog := len(s.slots) + len(s.queue) + 1
	drain := avg * time.Duration(backlog) / time.Duration(s.cfg.maxConcurrent)
	secs := int64(math.Ceil(drain.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.FormatInt(secs, 10)
}

// observe feeds one analysis duration into the EWMA (weight 1/8). The
// load/store race is harmless: any interleaving still converges on the
// recent mean.
func (s *server) observe(d time.Duration) {
	old := s.avgNanos.Load()
	if old == 0 {
		s.avgNanos.Store(int64(d))
		return
	}
	s.avgNanos.Store(old + (int64(d)-old)/8)
}

// renderFunc turns an uploaded request body into a JSON response body.
// Most endpoints only look at the hashed trace image they were handed;
// /v1/diff takes its envelope raw and also reads the request's
// Content-Type to pick its two-side encoding.
type renderFunc[B any] func(ctx context.Context, r *http.Request, body B) ([]byte, error)

// statusError pins a render failure to a specific HTTP status, with an
// optional prebuilt JSON body (the diff endpoint's doctor-style 422).
type statusError struct {
	status int
	body   []byte // optional JSON document; nil = default error doc
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// traces returns the cache every load, analysis and render goes through:
// the shared one or, when it is disabled, a cache that lives for this
// one request — the same path, with nothing retained past the response
// and so nothing that can bleed from one request into another.
func (s *server) traces() *cache.Cache {
	if s.cache == nil {
		return cache.New(0, 0)
	}
	return s.cache
}

// artifact serves one analysis kind through all the tiers — local
// memory tier, CRC-verified disk tier, then (in cluster mode) a peek at
// the key's owner replica, then recompute with write-through. Remote
// fetches are adopted into the local tiers so the next request for the
// same bytes stays on this box.
func (s *server) artifact(ctx context.Context, kind string, img cache.Image) ([]byte, error) {
	c := s.traces()
	if s.cluster != nil {
		// Only a cluster looks at the key out here, to ask the owner before
		// computing; ArtifactOf starts with the same local tiers Peek reads.
		if b, ok := c.Peek(img.Key(), kind); ok {
			s.noteCluster(ctx, "local")
			return b, nil
		}
		if b, ok := s.clusterFetch(ctx, img.Key(), kind); ok {
			return b, nil
		}
	}
	return c.ArtifactOf(ctx, img, kind, s.cfg.limits)
}

// renderKind is the renderFunc of every single-trace endpoint: what
// /v1/<kind> returns is whatever the cache's ArtifactOf renders for kind.
func (s *server) renderKind(kind string) renderFunc[cache.Image] {
	return func(ctx context.Context, _ *http.Request, img cache.Image) ([]byte, error) {
		return s.artifact(ctx, kind, img)
	}
}

// memoryStats is the memory section of GET /v1/stats: the soft limit in
// force (0 = none) and what set it, beside the heap the last GC found
// live — what the cache's bytes are a budget for.
type memoryStats struct {
	LimitBytes    int64  `json:"limitBytes"`
	Source        string `json:"source"`
	HeapLiveBytes uint64 `json:"heapLiveBytes"`
}

func (s *server) memoryStats() memoryStats {
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	out := memoryStats{LimitBytes: runtimeMemoryLimit(), Source: s.memoryLimitSource}
	if live[0].Value.Kind() == metrics.KindUint64 {
		out.HeapLiveBytes = live[0].Value.Uint64()
	}
	return out
}

// handleStats reports the cache counters (GET /v1/stats).
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	type cacheStats struct {
		Enabled         bool   `json:"enabled"`
		Hits            uint64 `json:"hits"`
		Misses          uint64 `json:"misses"`
		Dedups          uint64 `json:"dedups"`
		Evictions       uint64 `json:"evictions"`
		Entries         int    `json:"entries"`
		Bytes           int64  `json:"bytes"`
		CapacityBytes   int64  `json:"capacityBytes"`
		CapacityEntries int    `json:"capacityEntries"`
	}
	out := struct {
		Cache   cacheStats       `json:"cache"`
		Memory  memoryStats      `json:"memory"`
		Disk    *cache.DiskStats `json:"disk,omitempty"`
		Jobs    *jobs.Stats      `json:"jobs,omitempty"`
		Cluster *clusterStats    `json:"cluster,omitempty"`
	}{Memory: s.memoryStats()}
	out.Cluster = s.clusterStatsSnapshot()
	if s.cache != nil {
		st := s.cache.Stats()
		out.Cache = cacheStats{
			Enabled: true,
			Hits:    st.Hits, Misses: st.Misses, Dedups: st.Dedups,
			Evictions: st.Evictions, Entries: st.Entries, Bytes: st.Bytes,
			CapacityBytes: st.MaxBytes, CapacityEntries: st.MaxEntries,
		}
		if d := s.cache.Disk(); d != nil {
			dst := d.Stats()
			out.Disk = &dst
		}
	}
	if s.jobs != nil {
		jst := s.jobs.Stats()
		out.Jobs = &jst
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(&out)
}

// analysis wraps a renderFunc with the whole protection stack: request
// deadline, admission control, body cap, and error-to-status mapping.
// The body is read into a buffer from the server's free list and goes
// back on it once the response is written; a handler that panics drops
// it instead.
func analysis[B body](s *server, name string, read bodyReader[B], render renderFunc[B]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.admitted(w, r, s.heldFor(r), func(ctx context.Context) {
			body, serr := readBody(s, w, r, read)
			if serr != nil {
				s.writeError(w, serr.status, serr.err)
				return
			}
			s.respond(ctx, w, name, func(ctx context.Context) ([]byte, error) {
				return render(ctx, r, body)
			})
			s.bodies.Put(body.Data())
		})
	})
}

// heldFor is what a request's body counts toward the memory limit's
// headroom until the response: its declared size, or the cap when that
// says nothing (chunked, or gzip's wire length).
func (s *server) heldFor(r *http.Request) int64 {
	if r.ContentLength >= 0 && r.Header.Get("Content-Encoding") == "" {
		return min(r.ContentLength, s.cfg.maxBody)
	}
	return s.cfg.maxBody
}

// admitted runs serve under the request deadline once admission control
// lets it in, with held bytes of trace image counted toward the memory
// limit until it returns; a shed or a deadline in the queue is answered
// here.
func (s *server) admitted(w http.ResponseWriter, r *http.Request, held int64, serve func(ctx context.Context)) {
	ctx := r.Context()
	if s.cfg.requestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.requestTimeout)
		defer cancel()
	}
	release, err := s.admit(ctx)
	if err != nil {
		if errors.Is(err, errShed) {
			w.Header().Set("Retry-After", s.retryAfter())
			s.writeError(w, http.StatusTooManyRequests, err)
			return
		}
		// A queue-deadline 504 is as retryable as a 429 shed: the
		// server was busy, not broken. Advertise that consistently.
		w.Header().Set("Retry-After", s.retryAfter())
		s.writeError(w, http.StatusGatewayTimeout,
			fmt.Errorf("queued past the request deadline: %w", err))
		return
	}
	defer release()
	defer s.mem.hold(held)()
	start := time.Now()
	defer func() { s.observe(time.Since(start)) }()
	if s.analysisHook != nil {
		s.analysisHook()
	}
	serve(ctx)
}

// respond writes what render returns, or maps its error to a status.
// The JSON body is rendered in full before any of it is written — render
// returns finished bytes or an error — so a mid-render failure still
// produces a clean error response instead of truncated output.
func (s *server) respond(ctx context.Context, w http.ResponseWriter, name string, render func(context.Context) ([]byte, error)) {
	var note *clusterNote
	if s.cluster != nil {
		note = &clusterNote{}
		ctx = context.WithValue(ctx, clusterNoteKey{}, note)
	}
	out, err := render(ctx)
	if err != nil {
		var se *statusError
		switch {
		case errors.As(err, &se):
			if se.body != nil {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(se.status)
				_, _ = w.Write(se.body)
				return
			}
			s.writeError(w, se.status, se.err)
		case errors.Is(err, analyzer.ErrLimitExceeded):
			s.writeError(w, http.StatusRequestEntityTooLarge, err)
		case errors.Is(err, context.DeadlineExceeded):
			w.Header().Set("Retry-After", s.retryAfter())
			s.writeError(w, http.StatusGatewayTimeout, err)
		case errors.Is(err, context.Canceled):
			// Client went away; nothing useful to write.
		default:
			s.writeError(w, http.StatusBadRequest,
				fmt.Errorf("%s: %w", name, err))
		}
		return
	}
	if note != nil && note.v != "" {
		w.Header().Set("X-Pdt-Cluster", note.v)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	_, _ = w.Write(out)
}

// writeError emits a small JSON error document.
func (s *server) writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// recoverPanics converts handler panics into 500s so one hostile trace
// cannot take the daemon down.
func (s *server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				s.log.Error("handler panic",
					"method", r.Method, "path", r.URL.Path, "panic", fmt.Sprint(v))
				s.writeError(w, http.StatusInternalServerError,
					fmt.Errorf("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// statusWriter captures the status and size for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += n
	return n, err
}

// logRequests emits one structured line per request.
func (s *server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes_in", r.ContentLength,
			"bytes_out", sw.bytes,
			"duration_ms", float64(time.Since(start).Microseconds())/1000,
			"remote", r.RemoteAddr)
	})
}
