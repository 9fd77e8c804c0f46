// pdt-tad is the trace-analysis daemon: a long-running HTTP service that
// accepts PDT trace uploads and returns analysis JSON, hardened for
// unattended operation — per-request deadlines, body and resource limits,
// bounded concurrency with load shedding, panic containment, health
// probes, and graceful drain on SIGTERM.
//
// Repeated uploads of the same trace bytes are served from a
// content-addressed (SHA-256), size-bounded LRU cache of loaded traces
// and rendered artifact bytes, with singleflight dedup of concurrent
// loads; a diff is cached under the pair of its two sides' keys. GET
// /v1/stats exposes the counters. With -state-dir the cache
// gains a disk-backed second tier (CRC-framed objects, atomic writes,
// rehydrated on boot) and the async job API becomes durable: accepted
// jobs are journaled and replayed after a crash.
//
// With -peers and -self the daemon joins a consistent-hash replica
// ring: each trace key has an owner replica, local misses peek the
// owner's cache before recomputing, and every peer call runs behind
// timeouts, retries with jittered backoff, and per-peer circuit
// breakers. An unreachable owner degrades to local computation
// (X-Pdt-Cluster: degraded), never an error. Uploads may be sent
// Content-Encoding: gzip and JSON responses are gzip-compressed when
// the client accepts it.
//
// Endpoints:
//
//	POST /v1/summary  trace body -> summary JSON (pdt-ta json)
//	POST /v1/profile  trace body -> interval profile JSON
//	POST /v1/gaps     trace body -> event-free stretches JSON
//	POST /v1/critpath trace body -> critical-path JSON
//	POST /v1/doctor   trace body -> salvage/recovery report JSON
//	POST /v1/diff     two traces -> overhead-attribution diff JSON
//	POST /v1/upload   open a chunked-upload session -> 201 + id
//	POST /v1/upload/{id}?offset=N  append a chunk (gzip ok); 409 + current
//	                  offset on mismatch (resume point)
//	POST /v1/upload/{id}/complete  seal the stream -> final summary + key
//	DELETE /v1/upload/{id}         abort the session
//	GET  /v1/live/{id}  running summary of an in-flight upload
//	POST /v1/jobs     trace body + ?kind= -> 202 + job id (or sync 200)
//	GET  /v1/jobs/{id}         job document JSON
//	GET  /v1/jobs/{id}/result  completed job's artifact JSON
//	GET  /v1/cluster/artifact/{key}/{kind}  peer cache peek (CRC-framed)
//	GET  /v1/stats    cache/disk/jobs/cluster counters
//	GET  /healthz     liveness probe
//	GET  /readyz      readiness probe (503 draining, "degraded" body
//	                  when the durable tier is down)
//
// Usage:
//
//	pdt-tad -addr 127.0.0.1:8329 -state-dir /var/lib/pdt-tad
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "pdt-tad:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until the listener fails or a
// shutdown signal drains it. ready, when non-nil, receives the bound
// address once the listener is up (tests use it; main passes nil and
// reads the address from the log line on stdout).
func run(args []string, stdout io.Writer, logw io.Writer, ready chan<- net.Addr) error {
	def := defaultConfig()
	fs := flag.NewFlagSet("pdt-tad", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", def.addr, "listen address (host:port; port 0 picks a free port)")
		reqTimeout = fs.Duration("request-timeout", def.requestTimeout, "per-request analysis deadline (0 = none)")
		maxBody    = fs.Int64("max-body", def.maxBody, "max request body bytes (413 beyond)")
		maxConc    = fs.Int("max-concurrent", def.maxConcurrent, "analyses running at once")
		maxQueue   = fs.Int("max-queue", def.maxQueue, "requests allowed to wait for a slot (429 beyond)")
		drain      = fs.Duration("drain", def.drain, "graceful shutdown budget after SIGTERM/SIGINT")
		maxChunk   = fs.Int("max-chunk-bytes", def.limits.MaxChunkBytes, "max declared chunk payload bytes")
		maxMeta    = fs.Int("max-meta-bytes", def.limits.MaxMetaBytes, "max declared metadata bytes")
		maxRecords = fs.Int("max-records", def.limits.MaxRecords, "max decoded records per trace")
		maxDecode  = fs.Int64("max-decode-bytes", def.limits.MaxDecodeBytes, "decode memory budget in bytes")
		cacheBytes = fs.Int64("cache-bytes", def.cacheBytes, "trace cache retention budget in bytes (0 with -cache-entries 0 disables the cache)")
		cacheEnts  = fs.Int("cache-entries", def.cacheEntries, "max cached traces (0 = unbounded when the cache is enabled)")
		stateDir   = fs.String("state-dir", "", "directory for the disk cache tier and job journal (empty = memory-only, jobs run synchronously)")
		diskBytes  = fs.Int64("disk-cache-bytes", def.diskCacheBytes, "disk cache tier budget in bytes (0 = unbounded)")
		jobWorkers = fs.Int("job-workers", def.jobWorkers, "async job worker count")
		jobTries   = fs.Int("job-attempts", def.jobAttempts, "per-job attempt budget before it fails terminally")
		jobBackoff = fs.Duration("job-backoff", def.jobBackoff, "base retry backoff between job attempts")
		jobBackCap = fs.Duration("job-backoff-cap", def.jobBackoffCap, "ceiling on the exponential job retry backoff")
		chaosSpec  = fs.String("chaos", "", "fault-injection plan for the durable tier and peer transport (e.g. diskfull:3,netdrop:b:2) — test harness only")
		peersSpec  = fs.String("peers", "", "comma-separated name=URL replica list enabling cluster mode (e.g. a=http://h1:8329,b=http://h2:8329)")
		selfName   = fs.String("self", "", "this replica's name in -peers")
		peerTime   = fs.Duration("peer-timeout", def.peerTimeout, "deadline for one peer cache-peek call")
		peerTries  = fs.Int("peer-attempts", def.peerAttempts, "call budget per peer fetch, first try included")
		peerBack   = fs.Duration("peer-backoff", def.peerBackoff, "base retry backoff between peer call attempts")
		peerBackC  = fs.Duration("peer-backoff-cap", def.peerBackoffCap, "ceiling on the peer retry backoff")
		brkThresh  = fs.Int("peer-breaker-threshold", def.peerBreakerThreshold, "consecutive failures that open a peer's circuit breaker")
		brkCool    = fs.Duration("peer-breaker-cooldown", def.peerBreakerCooldown, "open breaker cooldown before a half-open probe")
		maxUploads = fs.Int("max-uploads", def.maxUploads, "concurrent chunked-upload sessions (429 beyond)")
		uploadTTL  = fs.Duration("upload-ttl", def.uploadTTL, "idle chunked-upload session expiry")
		maxUpload  = fs.Int64("max-upload-bytes", def.maxUploadBytes, "total decompressed bytes one chunked upload may stream")
		streamWin  = fs.Int64("stream-window-bytes", def.limits.StreamWindowBytes, "streaming-analysis memory window in bytes (0 = analyzer default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := def
	cfg.addr = *addr
	cfg.requestTimeout = *reqTimeout
	cfg.maxBody = *maxBody
	cfg.maxConcurrent = *maxConc
	cfg.maxQueue = *maxQueue
	cfg.drain = *drain
	cfg.limits.MaxChunkBytes = *maxChunk
	cfg.limits.MaxMetaBytes = *maxMeta
	cfg.limits.MaxRecords = *maxRecords
	cfg.limits.MaxDecodeBytes = *maxDecode
	cfg.cacheBytes = *cacheBytes
	cfg.cacheEntries = *cacheEnts
	cfg.stateDir = *stateDir
	cfg.diskCacheBytes = *diskBytes
	cfg.jobWorkers = *jobWorkers
	cfg.jobAttempts = *jobTries
	cfg.jobBackoff = *jobBackoff
	cfg.jobBackoffCap = *jobBackCap
	cfg.chaosSpec = *chaosSpec
	cfg.peersSpec = *peersSpec
	cfg.selfName = *selfName
	cfg.peerTimeout = *peerTime
	cfg.peerAttempts = *peerTries
	cfg.peerBackoff = *peerBack
	cfg.peerBackoffCap = *peerBackC
	cfg.peerBreakerThreshold = *brkThresh
	cfg.peerBreakerCooldown = *brkCool
	cfg.maxUploads = *maxUploads
	cfg.uploadTTL = *uploadTTL
	cfg.maxUploadBytes = *maxUpload
	cfg.limits.StreamWindowBytes = *streamWin
	// The body cap is the outer wall; keep the analyzer's file limit in
	// step so admission control agrees with the HTTP layer.
	cfg.limits.MaxFileBytes = cfg.maxBody

	// Before setupState, so that disk-tier rehydration runs under the limit
	// too.
	budget, limitSource := memoryLimit(cfg, os.Getenv("GOMEMLIMIT"))
	mem, stopMem := startMemLimit(budget)
	defer stopMem()

	log := slog.New(slog.NewJSONHandler(logw, nil))
	srv := newServer(cfg, log)
	srv.mem, srv.memoryLimitSource = mem, limitSource
	if err := srv.setupState(); err != nil {
		return err
	}
	defer srv.closeState()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// The smoke test and operators both scrape this line for the port.
	fmt.Fprintf(stdout, "pdt-tad: listening on %s\n", ln.Addr())
	log.Info("listening", "addr", ln.Addr().String(),
		"max_concurrent", cfg.maxConcurrent, "max_queue", cfg.maxQueue,
		"max_body", cfg.maxBody, "request_timeout", cfg.requestTimeout.String(),
		"memory_limit", runtimeMemoryLimit(), "memory_limit_source", limitSource)
	if ready != nil {
		ready <- ln.Addr()
	}

	hs := &http.Server{
		Handler:           srv.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Drain: flip readiness first so probes stop sending work, then let
	// in-flight requests finish within the budget.
	srv.draining.Store(true)
	log.Info("draining", "budget", cfg.drain.String())
	sctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		_ = hs.Close()
		return fmt.Errorf("drain exceeded %s: %w", cfg.drain, err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Info("stopped")
	return nil
}
