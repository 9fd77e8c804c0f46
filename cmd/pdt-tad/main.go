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
// The flags size the daemon to its host (body, decode, cache and upload
// limits; admission) and place it in a deployment (-addr, -state-dir,
// -peers, -self, -drain). The job manager's and the peer
// client's retry policies are internal/jobs' and internal/cluster's
// defaults, not flags.
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
	cfg := defaultConfig()
	if err := flags(&cfg).Parse(args); err != nil {
		return err
	}
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

// flags binds each command-line flag to its cfg field, with the field's
// current value as the default.
func flags(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("pdt-tad", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", cfg.addr, "listen address (host:port; port 0 picks a free port)")
	fs.DurationVar(&cfg.requestTimeout, "request-timeout", cfg.requestTimeout, "per-request analysis deadline (0 = none)")
	fs.Int64Var(&cfg.maxBody, "max-body", cfg.maxBody, "max request body bytes (413 beyond)")
	fs.IntVar(&cfg.maxConcurrent, "max-concurrent", cfg.maxConcurrent, "analyses running at once")
	fs.IntVar(&cfg.maxQueue, "max-queue", cfg.maxQueue, "requests allowed to wait for a slot (429 beyond)")
	fs.DurationVar(&cfg.drain, "drain", cfg.drain, "graceful shutdown budget after SIGTERM/SIGINT")
	fs.IntVar(&cfg.limits.MaxChunkBytes, "max-chunk-bytes", cfg.limits.MaxChunkBytes, "max declared chunk payload bytes")
	fs.IntVar(&cfg.limits.MaxMetaBytes, "max-meta-bytes", cfg.limits.MaxMetaBytes, "max declared metadata bytes")
	fs.IntVar(&cfg.limits.MaxRecords, "max-records", cfg.limits.MaxRecords, "max decoded records per trace")
	fs.Int64Var(&cfg.limits.MaxDecodeBytes, "max-decode-bytes", cfg.limits.MaxDecodeBytes, "decode memory budget in bytes")
	fs.Int64Var(&cfg.cacheBytes, "cache-bytes", cfg.cacheBytes, "trace cache retention budget in bytes (0 with -cache-entries 0 disables the cache)")
	fs.IntVar(&cfg.cacheEntries, "cache-entries", cfg.cacheEntries, "max cached traces (0 = unbounded when the cache is enabled)")
	fs.StringVar(&cfg.stateDir, "state-dir", cfg.stateDir, "directory for the disk cache tier and job journal (empty = memory-only, jobs run synchronously)")
	fs.Int64Var(&cfg.diskCacheBytes, "disk-cache-bytes", cfg.diskCacheBytes, "disk cache tier budget in bytes (0 = unbounded)")
	fs.StringVar(&cfg.peersSpec, "peers", cfg.peersSpec, "comma-separated name=URL replica list enabling cluster mode (e.g. a=http://h1:8329,b=http://h2:8329)")
	fs.StringVar(&cfg.selfName, "self", cfg.selfName, "this replica's name in -peers")
	fs.IntVar(&cfg.maxUploads, "max-uploads", cfg.maxUploads, "concurrent chunked-upload sessions (429 beyond)")
	fs.DurationVar(&cfg.uploadTTL, "upload-ttl", cfg.uploadTTL, "idle chunked-upload session expiry")
	fs.Int64Var(&cfg.maxUploadBytes, "max-upload-bytes", cfg.maxUploadBytes, "total decompressed bytes one chunked upload may stream")
	fs.Int64Var(&cfg.limits.StreamWindowBytes, "stream-window-bytes", cfg.limits.StreamWindowBytes, "streaming-analysis memory window in bytes (0 = analyzer default)")
	return fs
}
