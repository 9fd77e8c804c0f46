package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
)

// target is what a serve workload talks to: one default-flag pdt-tad that
// has already analysed every corpus × kind pair, and — in the traced pass
// — an in-process cache of the daemon's own default size on which each
// op is replayed to split the round trip.
type target struct {
	d      *daemon
	w      workload
	corpus []*trace
	// nonce numbers fresh bodies; its base comes from the seed, so equal
	// seeds send equal bodies.
	nonce atomic.Uint64

	replay *cache.Cache
	disk   *cache.DiskTier

	// Per-window counters (atomic: two callers).
	shed, errors5xx atomic.Int64
}

// daemonCacheBytes is pdt-tad's default -cache-bytes, given to the replay
// cache so that it evicts as the daemon does.
const daemonCacheBytes = 256 << 20

// newTarget starts the daemon and primes it. It is the serve workloads'
// share of set-up.
func newTarget(ctx context.Context, e *env, w workload, traced bool) (*target, error) {
	d, err := startDaemon(ctx, e.bin, e.dir, w.callers)
	if err != nil {
		return nil, err
	}
	tg := &target{d: d, w: w, corpus: e.corpus}
	tg.nonce.Store(uint64(e.seed) << 32)
	if traced {
		tg.replay = cache.New(0, daemonCacheBytes)
		diskDir, err := os.MkdirTemp(e.dir, "disk-")
		if err == nil {
			tg.disk, err = cache.OpenDiskTier(diskDir, 0, nil)
		}
		if err != nil {
			tg.close()
			return nil, err
		}
	}
	for _, t := range tg.corpus {
		if t.Large && t.Name != w.large {
			continue
		}
		for _, kind := range servedKinds {
			body, status, err := d.post(kind, t.data)
			if err == nil {
				err = checkResponse(t, kind, status, body)
			}
			if err == nil && traced {
				_, err = tg.replay.Artifact(ctx, t.data, kind, analyzer.DefaultServiceLimits())
			}
			if err != nil {
				tg.close()
				return nil, fmt.Errorf("priming: %w", err)
			}
		}
	}
	return tg, nil
}

func (tg *target) close() {
	if tg != nil {
		tg.d.stop()
	}
}

// op is one POST /v1/<kind>. serve_warm sends a body the daemon has
// already analysed; serve_cold sends a fresh one, prepared before the
// request clock starts.
func (tg *target) op(seq int, it item, r *recorder) (time.Duration, error) {
	t, kind := tg.corpus[it.Trace], servedKinds[it.Kind]
	cold := tg.w.name == "serve_cold"
	body := t.data
	if cold {
		sp := r.begin("bench.body_prep")
		var err error
		body, err = freshBody(t.file, tg.nonce.Add(1))
		r.end(sp)
		if err != nil {
			return 0, err
		}
	}
	root := r.begin(tg.w.name)
	sp := r.begin("http.request")
	t0 := time.Now()
	reply, status, err := tg.d.post(kind, body)
	d := time.Since(t0)
	r.end(sp)
	if err != nil {
		return d, err
	}
	switch {
	case status == http.StatusTooManyRequests:
		tg.shed.Add(1)
	case status >= 500:
		tg.errors5xx.Add(1)
	}
	if err := checkResponse(t, kind, status, reply); err != nil {
		return d, err
	}
	if r != nil {
		err = tg.replayOp(t, kind, body, reply, cold, r)
	}
	r.end(root)
	return d, err
}

// replayOp repeats the daemon's cache work in-process, inside spans: the
// part of the round trip that is not HTTP. On large cold ops it also
// times the disk tier's put and get of the body (the sandbox's disk;
// informational).
func (tg *target) replayOp(t *trace, kind string, body, reply []byte, cold bool, r *recorder) error {
	sp := r.begin("cache.KeyOf")
	key := cache.KeyOf(body)
	r.end(sp)
	name := "cache.Artifact.hit"
	if cold {
		name = "cache.Artifact.miss"
	}
	sp = r.beginAllocIf(t.Large && !cold, name)
	b, err := tg.replay.Artifact(context.Background(), body, kind, analyzer.DefaultServiceLimits())
	r.end(sp)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, reply) {
		return fmt.Errorf("%s: /v1/%s reply differs from in-process cache.Artifact of the same body", t.Name, kind)
	}
	if cold && t.Large {
		sp = r.begin("disk.Put")
		err = tg.disk.Put(key, cache.KindTrace, body)
		r.end(sp)
		if err != nil {
			return fmt.Errorf("disk tier put: %w", err)
		}
		sp = r.begin("disk.Get")
		got, ok := tg.disk.Get(key, cache.KindTrace)
		r.end(sp)
		if !ok || !bytes.Equal(got, body) {
			return fmt.Errorf("%s: disk tier did not return the body it was given", t.Name)
		}
	}
	return nil
}

// healthzRounds is how many GET /healthz round trips give the HTTP floor.
const healthzRounds = 50

// runServe runs one window against the target. CPU time and peak RSS are
// the daemon's, read from /proc.
func (tg *target) runServe(ctx context.Context, seed int64, tm timing, traced bool) (*loopResult, error) {
	counters := map[string]float64{}
	if traced {
		var us []float64
		for i := 0; i < healthzRounds; i++ {
			t0 := time.Now()
			if err := tg.d.get("/healthz"); err != nil {
				return nil, err
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		counters["tad.healthz_us_p50"] = median(us)
	}
	var (
		stats [2]cacheStats
		marks int
		merr  error
	)
	res := closedLoop(ctx, tg.w, tg.corpus, schedule(tg.corpus, tg.w, seed), tm, traced, tg.op,
		func() time.Duration {
			cpu, err := procCPU(tg.d.pid())
			merr = firstErr(merr, err)
			return cpu
		},
		func() {
			var err error
			stats[marks], err = tg.d.stats()
			merr = firstErr(merr, err)
			if marks == 0 {
				tg.shed.Store(0)
				tg.errors5xx.Store(0)
			}
			marks++
		})
	if merr != nil {
		return nil, fmt.Errorf("reading daemon counters: %w", merr)
	}
	var err error
	if res.PeakRSSKB, err = procStatusKB(tg.d.pid(), "VmHWM"); err != nil {
		return nil, err
	}
	if traced {
		before, after := stats[0], stats[1]
		lookups := float64(after.Hits-before.Hits) + float64(after.Misses-before.Misses) + float64(after.Dedups-before.Dedups)
		if lookups > 0 {
			counters["cache.hit_share"] = float64(after.Hits-before.Hits) / lookups
		}
		counters["cache.evictions"] = float64(after.Evictions - before.Evictions)
		counters["cache.dedups"] = float64(after.Dedups - before.Dedups)
		counters["cache.entries"] = float64(after.Entries)
		counters["cache.bytes_mb"] = float64(after.Bytes) / (1 << 20)
		counters["tad.shed"] = float64(tg.shed.Load())
		counters["tad.errors_5xx"] = float64(tg.errors5xx.Load())
		counters["tad.rss_idle_mb"] = tg.d.idleRSS
		counters["tad.start_ms"] = float64(tg.d.startup.Nanoseconds()) / 1e6
		res.Counters = counters
	}
	return res, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
