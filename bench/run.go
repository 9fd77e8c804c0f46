package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options are the benchmark's own settings; none reaches a program under
// test.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
}

// Timing plan. A plain run sets up setupRounds times and reports the
// median, so that one slow exec or page-cache miss does not decide
// setup_s; while the hypervisor is withholding CPU time (quiet.go) it goes
// on to at most maxSetupRounds. A traced run gives the named workload the
// full window and every other workload a short slice, so that each layer
// reports from the workload that exercises it.
const (
	setupRounds    = 3
	maxSetupRounds = 5
	warmSeconds    = 1.5
	probeSeconds   = 2.0
	// minSamples is the floor per class below which p90 is not a
	// percentile with ten samples beyond it. A window stretches to reach
	// it (see timing), up to maxStretch times its length; the run fails
	// under it.
	minSamples = 100
	maxStretch = 2.5
	// smokeLimit is how long a smoke window may stay open to sample every
	// op of the schedule once.
	smokeLimit = 8.0
)

// env is one set-up: the generated corpus with its reference outputs, on
// disk for loop children, and the daemon binary.
type env struct {
	root   string // repository root
	out    string // bench/out: results and spans, kept
	dir    string // scratch directory of this set-up, removed on close
	bin    string
	seed   int64
	corpus []*trace
}

func (e *env) close() { _ = os.RemoveAll(e.dir) }

// setup generates the corpus by simulation, computes the reference
// outputs the given workloads' oracles need, and writes the corpus where
// a loop child can read it.
func setup(base *env, ws []workload) (*env, error) {
	e := *base
	var err error
	if e.dir, err = os.MkdirTemp(e.out, "run-"); err != nil {
		return nil, err
	}
	if e.corpus, err = generateCorpus(corpusSpecs(e.seed)); err != nil {
		e.close()
		return nil, err
	}
	for _, w := range ws {
		if err := fillWant(e.corpus, w); err != nil {
			e.close()
			return nil, fmt.Errorf("reference outputs for %s: %w", w.name, err)
		}
	}
	if err := writeCorpus(e.dir, e.corpus); err != nil {
		e.close()
		return nil, err
	}
	return &e, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runLoop runs one window of a workload: in a fresh child for the
// in-process workloads, against tg for the serve workloads.
// Only a full window (floor set) is held to the sample floor.
func runLoop(ctx context.Context, e *env, w workload, tg *target, o options, window float64, floor, traced bool) (*loopResult, error) {
	tm := timing{Warm: seconds(warmSeconds), Window: seconds(window), Limit: seconds(maxStretch * window), Steal: stealLimit}
	if o.smoke {
		// A smoke run checks paths, not numbers: it takes the host as it is.
		tm.Warm, tm.Limit, tm.Steal = seconds(0.2), seconds(smokeLimit), 1
	} else if floor {
		tm.Floor = minSamples
	}
	if w.serve {
		return tg.runServe(ctx, e.seed, tm, traced)
	}
	return runInChild(ctx, loopConfig{Workload: w.name, Seed: e.seed, Traced: traced, CorpusDir: e.dir, Timing: tm})
}

// report is one run's full result; the contract's last line is its
// first four fields.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload string         `json:"workload"`
	Traced   bool           `json:"traced"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Samples  map[string]int `json:"samples"` // per class, in the named workload's window
	// OpenSeconds is how long the window was open, QuietSeconds the part of
	// it the metrics come from (quiet.go).
	OpenSeconds  float64  `json:"open_s"`
	QuietSeconds float64  `json:"quiet_s"`
	Errors       []string `json:"errors,omitempty"`
	Host         hostInfo `json:"host"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchOne measures one workload: the plain pass (end-to-end metrics)
// or the traced pass (per-layer metrics).
func benchOne(ctx context.Context, o options) (*report, error) {
	named, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	base := &env{root: root, out: filepath.Join(root, "bench", "out"), seed: o.seed}
	if err := os.MkdirAll(base.out, 0o755); err != nil {
		return nil, err
	}
	// The build is not part of set-up: it is paid once per checkout, not
	// once per run of the system.
	t0 := time.Now()
	if base.bin, err = buildDaemon(ctx, root, base.out); err != nil {
		return nil, err
	}
	buildS := time.Since(t0).Seconds()

	rep := &report{Workload: named.name, Traced: o.traced, Seed: o.seed, Seconds: o.seconds, Host: host(root)}
	if o.traced {
		err = tracedPass(ctx, base, named, o, buildS, rep)
	} else {
		err = plainPass(ctx, base, named, o, rep)
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// plainPass sets up setupRounds times, or until that many set-ups were
// quiet, and reports the median of the quietest; then it measures one
// window with tracing off.
func plainPass(ctx context.Context, base *env, w workload, o options, rep *report) error {
	want, most := setupRounds, maxSetupRounds
	if o.smoke {
		want, most = 1, 1
	}
	var (
		e      *env
		tg     *target
		rounds []setupRound
	)
	closeAll := func() {
		tg.close()
		if e != nil {
			e.close()
		}
		e, tg = nil, nil
	}
	defer closeAll()
	for quiet := 0; quiet < want && len(rounds) < most; {
		closeAll()
		ticks, t0 := readHostTicks(), time.Now()
		var err error
		if e, err = setup(base, []workload{w}); err != nil {
			return err
		}
		if w.serve {
			if tg, err = newTarget(ctx, e, w, false); err != nil {
				return err
			}
		}
		r := setupRound{time.Since(t0).Seconds(), stolen(ticks, readHostTicks())}
		rounds = append(rounds, r)
		if r.stolen <= stealLimit {
			quiet++
		}
	}
	res, err := runLoop(ctx, e, w, tg, o, o.seconds, true, false)
	if err != nil {
		return err
	}
	rep.fill(res, e.corpus, o)
	rep.Metrics = endToEnd(res, e.corpus, setupSeconds(rounds, want))
	return nil
}

// setupRound is one timed set-up and the share of its CPU time the
// hypervisor withheld.
type setupRound struct{ seconds, stolen float64 }

// setupSeconds is the median over the n quietest rounds.
func setupSeconds(rounds []setupRound, n int) float64 {
	sort.SliceStable(rounds, func(a, b int) bool { return rounds[a].stolen < rounds[b].stolen })
	var secs []float64
	for _, r := range rounds[:min(n, len(rounds))] {
		secs = append(secs, r.seconds)
	}
	return median(secs)
}

// tracedPass measures every workload with spans on — the named one for
// the full window, after a shorter untraced window that prices the
// tracing itself, and the others for a probe slice — and derives the
// per-layer metrics.
func tracedPass(ctx context.Context, base *env, named workload, o options, buildS float64, rep *report) error {
	e, err := setup(base, workloadList)
	if err != nil {
		return err
	}
	defer e.close()
	probe := probeSeconds
	if o.smoke {
		probe = 0.4
	}
	// The untraced twin of every corpus run: the baseline of the
	// tracer's simulated slowdown (the paper's E3), exact for any seed.
	for _, t := range e.corpus {
		base, err := simulate(t.spec, false, nil)
		if err != nil {
			return err
		}
		t.UntracedCycles = base.cycles
	}
	results := map[string]*loopResult{}
	var plain *loopResult
	for _, w := range workloadList {
		window := probe
		if w.name == named.name {
			window = o.seconds
		}
		traced, untraced, err := tracedWorkload(ctx, e, w, o, window, w.name == named.name)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		results[w.name] = traced
		if untraced != nil {
			plain = untraced
		}
	}
	res := results[named.name]
	rep.fill(res, e.corpus, o)
	// A failed op anywhere in the pass makes the pass incorrect, whichever
	// workload it belonged to.
	for _, w := range workloadList {
		if r := results[w.name]; w.name != named.name && r.Failed > 0 {
			rep.Correct = false
			rep.Errors = append(rep.Errors, r.Errors...)
		}
	}
	rep.Metrics = perLayer(named.name, results, plain, e.corpus, buildS)
	return writeSpans(filepath.Join(e.out, "spans-"+named.name+".json"),
		spansFile{Workload: named.name, Ops: res.Ops, Spans: res.Spans})
}

// tracedWorkload runs one workload's traced window, preceded — when
// priced is set — by an untraced window a third as long on the same
// target.
func tracedWorkload(ctx context.Context, e *env, w workload, o options, window float64, priced bool) (traced, untraced *loopResult, err error) {
	var tg *target
	if w.serve {
		if tg, err = newTarget(ctx, e, w, true); err != nil {
			return nil, nil, err
		}
		defer tg.close()
	}
	if priced {
		if untraced, err = runLoop(ctx, e, w, tg, o, window/3, false, false); err != nil {
			return nil, nil, err
		}
	}
	traced, err = runLoop(ctx, e, w, tg, o, window, priced, true)
	return traced, untraced, err
}

// fill sets the verdict fields from the named workload's window.
func (rep *report) fill(res *loopResult, corpus []*trace, o options) {
	rep.Attempted, rep.Failed, rep.Errors = res.Attempted, res.Failed, res.Errors
	rep.OpenSeconds, rep.QuietSeconds = float64(res.OpenNS)/1e9, float64(res.WindowNS)/1e9
	rep.Samples = map[string]int{"large": 0, "small": 0}
	for _, s := range res.Samples {
		rep.Samples[corpus[s.Trace].class()]++
	}
	rep.Correct = res.Failed == 0 && res.Attempted > 0
	if !o.smoke {
		for class, n := range rep.Samples {
			if n < minSamples {
				rep.Correct = false
				rep.Errors = append(rep.Errors, fmt.Sprintf(
					"%s: %d %s samples in the window, p90 needs %d", res.Workload, n, class, minSamples))
			}
		}
	}
}

// classLatencies splits a window's samples by class and gives each
// class's p50 and p90 in milliseconds.
//
// A class mixes op types (trace × kind) whose latencies differ severalfold,
// so the pooled median of a class sits in the gap between two types and
// jumps from one to the other with the window's exact mix. p50 is
// therefore the mean over the class's op types of each type's own median:
// the typical latency of an op, averaged over the kinds of op. p90 is the
// pooled p90, the tail callers saw.
func classLatencies(res *loopResult, corpus []*trace) (p50, p90 map[string]float64) {
	pooled := map[string][]float64{}
	byType := map[string]map[item][]float64{"small": {}, "large": {}}
	for _, s := range res.Samples {
		c, ms := corpus[s.Trace].class(), float64(s.NS)/1e6
		pooled[c] = append(pooled[c], ms)
		byType[c][item{s.Trace, s.Kind}] = append(byType[c][item{s.Trace, s.Kind}], ms)
	}
	p50, p90 = map[string]float64{}, map[string]float64{}
	for class, types := range byType {
		sum := 0.0
		for _, ms := range types {
			sum += median(ms)
		}
		p50[class] = ratio(sum, float64(len(types)))
		p90[class] = percentile(pooled[class], 90)
	}
	return p50, p90
}

// endToEnd computes the metrics a user of the system would see, from one
// untraced window.
func endToEnd(res *loopResult, corpus []*trace, setupS float64) map[string]metric {
	p50, p90 := classLatencies(res, corpus)
	return map[string]metric{
		"setup_s":       {setupS, "s"},
		"ops_per_s":     {opsPerS(res), "1/s"},
		"small_p50_ms":  {p50["small"], "ms"},
		"large_p50_ms":  {p50["large"], "ms"},
		"large_p90_ms":  {p90["large"], "ms"},
		"cpu_ms_per_op": {ratio(float64(res.CPUNS)/1e6, float64(len(res.Samples))), "ms"},
		"peak_rss_mb":   {float64(res.PeakRSSKB) / 1024, "MB"},
	}
}
