package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one op that completed with correct output inside the window,
// in a slice the metrics come from.
type sample struct {
	Trace int   `json:"t"`
	Kind  int   `json:"k"`
	NS    int64 `json:"ns"`
	Seq   int   `json:"seq"` // position in the closed loop
	End   int64 `json:"end"` // when the caller was done with the op, oracle included: ns since the loop started
}

// loopResult is what one closed-loop window measured. It crosses the
// process boundary as JSON when the loop ran in a child.
type loopResult struct {
	Workload  string     `json:"workload"`
	OpenNS    int64      `json:"openNs"`   // how long the window was open
	WindowNS  int64      `json:"windowNs"` // of that, the quiet slices the metrics come from
	Samples   []sample   `json:"samples"`
	Passes    []passStat `json:"passes"`
	Attempted int        `json:"attempted"` // ops completed while the window was open
	Failed    int        `json:"failed"`    // of those, refused, errored or wrong
	Errors    []string   `json:"errors,omitempty"`
	// CPUNS and PeakRSSKB describe the process under test: the loop
	// process itself for in-process workloads, the daemon for serve_*.
	CPUNS     int64 `json:"cpuNs"`
	PeakRSSKB int64 `json:"peakRssKb"`

	// Traced pass only.
	Spans    []span             `json:"spans,omitempty"`
	Ops      []opInfo           `json:"ops,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// maxErrors bounds the failure messages kept per window.
const maxErrors = 5

// timing is the shape of one loop: untimed warm-up, then the window. The
// window is read in slices, and it stays open past its length until the
// slices whose stolen share is within steal add up to that length and hold
// floor samples of each class (the count p90 needs to have ten samples
// beyond it), and every op of the schedule has been sampled once (a
// class's p50 averages over its op types, so none may be missing): a bad
// phase of the host stretches a run instead of failing it or deciding its
// numbers. At limit the window closes regardless.
type timing struct {
	Warm   time.Duration `json:"warm"`
	Window time.Duration `json:"window"`
	Limit  time.Duration `json:"limit"`
	Floor  int           `json:"floor"`
	Steal  float64       `json:"steal"`
}

// sliceLength is the stretch between two readings of the clocks. A slice
// of two CPUs holds 100 clock ticks, so stealLimit is five of them.
const sliceLength = 500 * time.Millisecond

// passStat is one full pass through the schedule inside quiet slices.
type passStat struct {
	N  int   `json:"n"`  // correct ops
	NS int64 `json:"ns"` // from the end of the pass before to the end of this one
}

// closedLoop runs callers goroutines that each take the next op of the
// schedule as soon as their previous one returned. An op counts if it
// completes while the window is open, whenever it started, so the ops cut
// off at the two edges balance. cpu reads the CPU time of the process
// under test; mark is called at the instant the window opens and again
// when it closes.
//
// Attempted and Failed count every op of the open window. Samples, Ops,
// Passes, WindowNS and CPUNS are those of the slices quietest chose.
func closedLoop(ctx context.Context, w workload, corpus []*trace, sched []item,
	tm timing, traced bool, op opFunc, cpu func() time.Duration, mark func()) *loopResult {
	const (
		warming = iota
		open
		closed
	)
	var (
		state atomic.Int32
		next  atomic.Int64
		have  [2]atomic.Int64 // samples so far: small, large
		seen  = make([]atomic.Bool, len(sched))
		types atomic.Int64 // schedule entries sampled at least once
		wg    sync.WaitGroup
		mu    sync.Mutex
		res   = &loopResult{Workload: w.name}
		recs  = make([]*recorder, w.callers)
		epoch = time.Now()
	)
	for c := 0; c < w.callers; c++ {
		if traced {
			recs[c] = newRecorder(epoch)
		}
		wg.Add(1)
		go func(r *recorder) {
			defer wg.Done()
			var samples []sample
			var errs []string
			attempted := 0
			for state.Load() != closed && ctx.Err() == nil {
				seq := int(next.Add(1) - 1)
				it := sched[seq%len(sched)]
				r.startOp(seq)
				d, err := op(seq, it, r)
				r.abandon()
				if state.Load() != open {
					continue
				}
				attempted++
				if err != nil {
					if len(errs) < maxErrors {
						errs = append(errs, err.Error())
					}
					continue
				}
				samples = append(samples, sample{it.Trace, it.Kind, int64(d), seq, int64(time.Since(epoch))})
				if !seen[seq%len(sched)].Swap(true) {
					types.Add(1)
				}
				if corpus[it.Trace].Large {
					have[1].Add(1)
				} else {
					have[0].Add(1)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			res.Samples = append(res.Samples, samples...)
			res.Attempted += attempted
			res.Failed += attempted - len(samples)
			res.Errors = append(res.Errors, errs...)
		}(recs[c])
	}
	sleepCtx(ctx, tm.Warm)
	mark()
	type reading struct {
		at, cpu int64
		have    [2]int64
		ticks   hostTicks
	}
	read := func() reading {
		return reading{int64(time.Since(epoch)), int64(cpu()), [2]int64{have[0].Load(), have[1].Load()}, readHostTicks()}
	}
	var slices []slice
	opened := read()
	state.Store(open)
	for last := opened; ; {
		sleepCtx(ctx, min(sliceLength, tm.Window))
		now := read()
		slices = append(slices, slice{from: last.at, to: now.at, stolen: stolen(last.ticks, now.ticks),
			cpu: now.cpu - last.cpu, have: [2]int64{now.have[0] - last.have[0], now.have[1] - last.have[1]}})
		last = now
		_, enough := quietest(slices, tm)
		if enough && types.Load() == int64(len(sched)) ||
			time.Duration(now.at-opened.at) >= tm.Limit || ctx.Err() != nil {
			res.OpenNS = now.at - opened.at
			break
		}
	}
	state.Store(closed)
	mark()
	wg.Wait()
	if len(res.Errors) > maxErrors {
		res.Errors = res.Errors[:maxErrors]
	}
	res.quiet(slices, tm, len(sched))
	if traced {
		kept := map[int32]bool{}
		for _, s := range res.Samples {
			t := corpus[s.Trace]
			info := opInfo{Op: int32(s.Seq), Trace: t.Name, Class: t.class()}
			if w.kinds != nil {
				info.Kind = w.kinds[s.Kind]
			}
			res.Ops = append(res.Ops, info)
			kept[info.Op] = true
		}
		res.Spans = mergeSpans(recs, kept)
	}
	return res
}

// quiet reduces a window's samples to those that completed in the slices
// quietest chose, and derives what else the metrics need from those
// slices: their length, the CPU time used in them, and the full passes
// through the schedule that lie in them.
func (res *loopResult) quiet(slices []slice, tm timing, schedule int) {
	keep, _ := quietest(slices, tm)
	for i, s := range slices {
		if keep[i] {
			res.WindowNS += s.to - s.from
			res.CPUNS += s.cpu
		}
	}
	type pass struct {
		n, kept int
		end     int64
		endKept bool
	}
	passes := map[int]*pass{}
	all := res.Samples
	res.Samples = nil
	for _, s := range all {
		i := sliceOf(slices, s.End)
		kept := i >= 0 && keep[i]
		p := passes[s.Seq/schedule]
		if p == nil {
			p = &pass{}
			passes[s.Seq/schedule] = p
		}
		p.n++
		if s.End > p.end {
			p.end, p.endKept = s.End, kept
		}
		if kept {
			p.kept++
			res.Samples = append(res.Samples, s)
		}
	}
	// The first and last pass are cut by the window's edges; the first
	// still ends where the second begins.
	for i, p := range passes {
		before := passes[i-1]
		if before != nil && before.endKept && passes[i+1] != nil && p.kept == p.n {
			res.Passes = append(res.Passes, passStat{N: p.n, NS: p.end - before.end})
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) {
	select {
	case <-time.After(d):
	case <-ctx.Done():
	}
}

// loopConfig tells a loop child what to run. The child gets the corpus
// bytes and the schedule seed, never the programs' own inputs beyond
// that.
type loopConfig struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Timing    timing `json:"timing"`
	Traced    bool   `json:"traced"`
	CorpusDir string `json:"corpusDir"`
}

// childEnv marks a process as a loop child: it reads a loopConfig from
// standard input and writes a loopResult to standard output.
const childEnv = "PDT_BENCH_LOOP_CHILD"

// runInChild runs an in-process workload's loop in a fresh process, so
// that its peak RSS and CPU time are the workload's alone and not the
// set-up's.
func runInChild(ctx context.Context, cfg loopConfig) (*loopResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("loop child %s: %w", cfg.Workload, err)
	}
	var res loopResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("loop child %s: bad result: %w", cfg.Workload, err)
	}
	return &res, nil
}

// childMain is the loop child's entry point.
func childMain(ctx context.Context) error {
	var cfg loopConfig
	if err := json.NewDecoder(os.Stdin).Decode(&cfg); err != nil {
		return fmt.Errorf("loop child: reading config: %w", err)
	}
	w, ok := workloadByName(cfg.Workload)
	if !ok || w.serve {
		return fmt.Errorf("loop child: %q is not an in-process workload", cfg.Workload)
	}
	corpus, err := readCorpus(cfg.CorpusDir)
	if err != nil {
		return err
	}
	var peakHeap uint64
	var op opFunc
	switch w.name {
	case "trace_run":
		op = traceRunOp(corpus)
	case "analyze_batch":
		op = analyzeBatchOp(corpus)
	case "analyze_stream":
		op = analyzeStreamOp(corpus, &peakHeap)
	}
	// pdt-run and pdt-ta are one op per process. Collecting between ops,
	// outside the op's clock, keeps one op's garbage out of the next op's
	// time and out of the peak RSS, which otherwise settles at one of two
	// levels depending on when the collector happened to run.
	collected := func(seq int, it item, r *recorder) (time.Duration, error) {
		d, err := op(seq, it, r)
		runtime.GC()
		return d, err
	}
	res := closedLoop(ctx, w, corpus, schedule(corpus, w, cfg.Seed),
		cfg.Timing, cfg.Traced, collected, selfCPU, func() {})
	if res.PeakRSSKB, err = procStatusKB(os.Getpid(), "VmHWM"); err != nil {
		return err
	}
	if cfg.Traced && w.name == "analyze_stream" {
		res.Counters = map[string]float64{"stream.peak_heap_mb": float64(peakHeap) / (1 << 20)}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// selfCPU is the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile is the nearest-rank percentile of xs (which it sorts).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(float64(len(xs))*p/100+0.999999) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median of xs (which it sorts).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
