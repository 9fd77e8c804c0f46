package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// TestMain lets the test binary stand in for the bench binary when the
// smoke test's loops re-execute it as a loop child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		if err := childMain(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinySpecs is a corpus small enough for unit tests: one of each class,
// and the cyclic trace.
func tinySpecs() []spec {
	return []spec{
		{Name: analysisLarge, Workload: "synthetic", Large: true, Params: map[string]string{"events": "300", "gap": "100"}},
		{Name: "pipeline", Workload: "pipeline", Params: map[string]string{"blocks": "8", "blockbytes": "1024", "seed": "1"}, Cycles: 8},
		{Name: "matmul", Workload: "matmul", Params: map[string]string{"n": "64", "t": "16", "seed": "1"}},
	}
}

func tinyCorpus(t *testing.T, ws ...string) []*trace {
	t.Helper()
	corpus, err := generateCorpus(tinySpecs())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ws {
		w, _ := workloadByName(name)
		if err := fillWant(corpus, w); err != nil {
			t.Fatal(err)
		}
	}
	return corpus
}

// TestOracleRejectsWrongOutput feeds each check a deliberately damaged
// input: a corrupted response, a truncated trace, a run that differs
// from the set-up run, a wrong cycle count.
func TestOracleRejectsWrongOutput(t *testing.T) {
	corpus := tinyCorpus(t, "analyze_batch", "analyze_stream", "serve_cold")
	large, pipeline := corpus[0], corpus[1]

	h, err := cache.New(0, 0).Load(context.Background(), large.data, analyzer.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := cache.Render("summary", h)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResponse(large, "summary", http.StatusOK, reply); err != nil {
		t.Errorf("intact response rejected: %v", err)
	}
	bad := bytes.Clone(reply)
	bad[len(bad)/2] ^= 1
	if checkResponse(large, "summary", http.StatusOK, bad) == nil {
		t.Error("response with one flipped bit accepted")
	}
	if checkResponse(large, "summary", http.StatusTooManyRequests, reply) == nil {
		t.Error("shed request (429) accepted")
	}

	cut := *large
	cut.data = large.data[:len(large.data)*2/3]
	if _, err := analyzeBatch(&cut, "summary", nil); err == nil {
		t.Error("batch analysis of a truncated trace passed the oracle")
	}
	if _, err := analyzeStream(&cut, nil, nil); err == nil {
		t.Error("stream analysis of a truncated trace passed the oracle")
	}
	if _, err := analyzeBatch(large, "summary", nil); err != nil {
		t.Errorf("batch analysis of the intact trace: %v", err)
	}

	res, err := simulate(large.spec, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRun(large, res); err != nil {
		t.Errorf("deterministic re-run rejected: %v", err)
	}
	res.bytes = bytes.Clone(res.bytes)
	res.bytes[len(res.bytes)-1] ^= 1
	if checkRun(large, res) == nil {
		t.Error("run with a different trace byte accepted")
	}

	wrong := *pipeline
	wrong.Cycles = 9
	if _, err := analyzeBatch(&wrong, "cycles", nil); err == nil {
		t.Error("cycle count that differs from the configured iterations accepted")
	}
	if _, err := analyzeBatch(pipeline, "cycles", nil); err != nil {
		t.Errorf("pipeline cycles: %v", err)
	}
}

func noCPU() time.Duration { return 0 }

// TestFailedOpsCount shows that a failed op lands in Failed (and so in
// fail_share), not in the samples.
func TestFailedOpsCount(t *testing.T) {
	corpus := tinyCorpus(t)
	w := workload{name: "fake", callers: 2, large: analysisLarge, smallPerLarge: 2}
	op := func(seq int, it item, r *recorder) (time.Duration, error) {
		time.Sleep(200 * time.Microsecond)
		if seq%3 == 0 {
			return 0, fmt.Errorf("op %d: wrong byte", seq)
		}
		return time.Millisecond, nil
	}
	marks := 0
	res := closedLoop(context.Background(), w, corpus, schedule(corpus, w, 1),
		timing{Warm: 10 * time.Millisecond, Window: 100 * time.Millisecond, Limit: 100 * time.Millisecond, Steal: 1}, false, op, noCPU, func() { marks++ })
	if marks != 2 {
		t.Errorf("mark called %d times, want 2", marks)
	}
	// The ops that complete after the last slice was read are attempted but
	// not sampled: one or two per caller.
	if lost := res.Attempted - res.Failed - len(res.Samples); res.Attempted == 0 || res.Failed == 0 || lost < 0 || lost > 2*w.callers {
		t.Fatalf("attempted %d, failed %d, samples %d", res.Attempted, res.Failed, len(res.Samples))
	}
	if share := float64(res.Failed) / float64(res.Attempted); share < 0.25 || share > 0.42 {
		t.Errorf("fail share %.2f, want about a third", share)
	}
	if len(res.Errors) == 0 || len(res.Errors) > maxErrors {
		t.Errorf("%d error messages kept", len(res.Errors))
	}
	rep := &report{}
	rep.fill(res, corpus, options{smoke: true})
	if rep.Correct {
		t.Error("a window with failed ops reported correct")
	}
}

// TestWindowStretchesToFloor: a window too short for the sample floor
// stays open until each class has it and every scheduled op was sampled,
// and gives up at its limit.
func TestWindowStretchesToFloor(t *testing.T) {
	corpus := tinyCorpus(t)
	w := workload{name: "fake", callers: 1, large: analysisLarge, smallPerLarge: 2}
	slow := func(seq int, it item, r *recorder) (time.Duration, error) {
		time.Sleep(time.Millisecond)
		return time.Millisecond, nil
	}
	sched := schedule(corpus, w, 1)
	tm := timing{Window: 5 * time.Millisecond, Limit: 5 * time.Second, Floor: 15, Steal: 1}
	res := closedLoop(context.Background(), w, corpus, sched, tm, false, slow, noCPU, func() {})
	rep := &report{}
	rep.fill(res, corpus, options{})
	if rep.Samples["large"] < tm.Floor || rep.Samples["small"] < tm.Floor {
		t.Errorf("window closed at %v with samples %v, floor %d", time.Duration(res.WindowNS), rep.Samples, tm.Floor)
	}
	if d := time.Duration(res.WindowNS); d <= tm.Window || d >= tm.Limit {
		t.Errorf("window %v did not stretch past %v to the floor", d, tm.Window)
	}
	// No class floor: the window still waits for one sample of every op.
	tm.Floor = 0
	res = closedLoop(context.Background(), w, corpus, sched, tm, false, slow, noCPU, func() {})
	ops := map[item]bool{}
	for _, s := range res.Samples {
		ops[item{s.Trace, s.Kind}] = true
	}
	if len(ops) != len(sched) {
		t.Errorf("window closed with %d of the schedule's %d ops sampled", len(ops), len(sched))
	}
	tm.Floor, tm.Limit = 1<<20, 60*time.Millisecond
	res = closedLoop(context.Background(), w, corpus, sched, tm, false, slow, noCPU, func() {})
	if d := time.Duration(res.WindowNS); d < tm.Limit || d > 5*tm.Limit {
		t.Errorf("window with an unreachable floor closed at %v, want about %v", d, tm.Limit)
	}
}

// TestScheduleSeeded: the same seed gives the same op sequence; another
// seed gives another order over the same ops, in the configured mix.
func TestScheduleSeeded(t *testing.T) {
	var corpus []*trace
	for _, s := range corpusSpecs(1) {
		corpus = append(corpus, &trace{spec: s})
	}
	for _, w := range workloadList {
		a, b, c := schedule(corpus, w, 7), schedule(corpus, w, 7), schedule(corpus, w, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different schedule", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds, same order", w.name)
		}
		key := func(s []item) []string {
			out := make([]string, len(s))
			for i, it := range s {
				out[i] = fmt.Sprint(it)
			}
			sort.Strings(out)
			return out
		}
		if !reflect.DeepEqual(key(a), key(c)) {
			t.Errorf("%s: different seeds schedule different ops", w.name)
		}
		large := 0
		for _, it := range a {
			if tr := corpus[it.Trace]; tr.Large {
				large++
				if tr.Name != w.large {
					t.Errorf("%s schedules large trace %s, want %s", w.name, tr.Name, w.large)
				}
			}
		}
		if small := len(a) - large; small != large*w.smallPerLarge {
			t.Errorf("%s: %d large to %d small, want 1:%d", w.name, large, small, w.smallPerLarge)
		}
	}
}

// TestFreshBody: a nonce variant is deterministic, parses clean, loads
// the same events, has another content key, and is served the same bytes
// as its base — which is what lets the oracle hold fresh bodies to the
// base trace's reference output.
func TestFreshBody(t *testing.T) {
	corpus := tinyCorpus(t, "serve_cold")
	for _, tr := range corpus {
		a, err := freshBody(tr.file, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := freshBody(tr.file, 42)
		c, _ := freshBody(tr.file, 43)
		if digest(a) != digest(b) {
			t.Errorf("%s: same nonce, different body", tr.Name)
		}
		keys := map[cache.Key]bool{cache.KeyOf(tr.data): true, cache.KeyOf(a): true, cache.KeyOf(c): true}
		if len(keys) != 3 {
			t.Errorf("%s: base and two nonces share a content key", tr.Name)
		}
		f, err := traceio.Parse(a)
		if err != nil || f.Truncated {
			t.Fatalf("%s: fresh body does not parse clean: %v", tr.Name, err)
		}
		h, err := cache.New(0, 0).Load(context.Background(), a, analyzer.DefaultServiceLimits())
		if err != nil {
			t.Fatal(err)
		}
		if err := checkLoaded(tr, int64(h.Trace().NumEvents()), h.Trace().Issues); err != nil {
			t.Error(err)
		}
		for _, kind := range servedKinds {
			out, err := cache.Render(kind, h)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkOutput(tr, "serve/"+kind, out); err != nil {
				t.Errorf("fresh body renders differently from its base: %v", err)
			}
		}
	}
}

// TestCorpusRoundTrip: the loop child reads back what set-up wrote.
func TestCorpusRoundTrip(t *testing.T) {
	corpus := tinyCorpus(t, "analyze_stream")
	dir := t.TempDir()
	if err := writeCorpus(dir, corpus); err != nil {
		t.Fatal(err)
	}
	back, err := readCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range back {
		if tr.SHA != corpus[i].SHA || digest(tr.data) != tr.SHA || !reflect.DeepEqual(tr.Want, corpus[i].Want) {
			t.Errorf("%s: manifest or bytes changed in the round trip", tr.Name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	r := newRecorder(time.Now())
	r.startOp(5)
	root := r.begin("op")
	a := r.begin("a")
	b := r.begin("b")
	r.end(b)
	r.end(a)
	r.end(root)
	spans := r.spans
	spans[0].Start, spans[0].End = 0, 100
	spans[1].Start, spans[1].End = 10, 70
	spans[2].Start, spans[2].End = 20, 50
	if got, want := selfTimes(spans), []int64{40, 30, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	if spans[2].Parent != 1 || spans[1].Parent != 0 || spans[0].Parent != -1 || spans[2].Op != 5 {
		t.Errorf("parents or op wrong: %+v", spans)
	}
	merged := mergeSpans([]*recorder{r, nil, r}, map[int32]bool{5: true})
	if len(merged) != 6 || merged[5].Parent != 4 || merged[3].Parent != -1 {
		t.Errorf("merge did not rebase parents: %+v", merged)
	}
	for _, seq := range []int{6, 7} {
		r.startOp(seq)
		root := r.begin("op")
		r.end(r.begin("a"))
		r.end(root)
	}
	merged = mergeSpans([]*recorder{r}, map[int32]bool{5: true, 7: true})
	if len(merged) != 5 || merged[3].Op != 7 || merged[4].Parent != 3 {
		t.Errorf("merge did not leave out op 6 and renumber op 7: %+v", merged)
	}
	var off *recorder
	off.end(off.beginAllocIf(true, "x")) // the tracing-off path must be a no-op
	off.abandon()
}

// TestQuietest: slices within the steal limit are all kept; where they
// fall short of the window or the floor, the quietest of the rest fill in.
func TestQuietest(t *testing.T) {
	tm := timing{Window: 3 * time.Second, Floor: 3, Steal: 0.05}
	mk := func(stolen ...float64) []slice {
		var out []slice
		for i, st := range stolen {
			out = append(out, slice{from: int64(i) * 1e9, to: int64(i+1) * 1e9, stolen: st, have: [2]int64{1, 1}})
		}
		return out
	}
	for _, c := range []struct {
		stolen []float64
		keep   []bool
		enough bool
	}{
		{[]float64{0, 0.01, 0.5, 0.02, 0.04}, []bool{true, true, false, true, true}, true},
		{[]float64{0, 0.5}, []bool{true, true}, false},
		{[]float64{0.4, 0, 0.3, 0.2, 0.01}, []bool{false, true, false, true, true}, false},
		{[]float64{0, 0}, []bool{true, true}, false},
	} {
		keep, enough := quietest(mk(c.stolen...), tm)
		if !reflect.DeepEqual(keep, c.keep) || enough != c.enough {
			t.Errorf("stolen %v: kept %v enough=%v, want %v %v", c.stolen, keep, enough, c.keep, c.enough)
		}
	}
	// Long enough but a class short of the floor: a noisy slice fills in.
	slices := mk(0, 0, 0, 0.3)
	slices[0].have, slices[1].have = [2]int64{1, 0}, [2]int64{1, 0}
	if keep, enough := quietest(slices, tm); !keep[3] || enough {
		t.Errorf("class under the floor: kept %v enough=%v", keep, enough)
	}
	if s := mk(0, 0); sliceOf(s, 1e9) != 1 || sliceOf(s, 2e9) != -1 || sliceOf(s, 0) != 0 {
		t.Error("sliceOf misplaces an instant")
	}
	if got := stolen(hostTicks{busy: 100, steal: 10}, hostTicks{busy: 190, steal: 20}); got != 0.1 {
		t.Errorf("stolen share = %v, want 0.1", got)
	}
	if h := readHostTicks(); h.busy == 0 {
		t.Error("no cpu line read from /proc/stat")
	}
}

// TestQuietSamples: what a window reports comes from its quiet slices —
// samples, length, CPU time and the passes that lie wholly in them — and
// throughput is the median over those passes, so one stalled pass does
// not move it; too few passes fall back to the count over the window.
func TestQuietSamples(t *testing.T) {
	const schedule, passes = 4, 12
	res := &loopResult{}
	var slices []slice
	now := int64(0)
	for seq := 2; seq < schedule*passes-1; seq++ { // both edge passes are cut
		now += int64(10 * time.Millisecond)
		if seq == 5*schedule+1 {
			now += int64(time.Second) // the host stalls once, in pass 5
		}
		res.Samples = append(res.Samples, sample{Seq: seq, End: now})
	}
	// One slice per pass; the hypervisor was busy elsewhere during pass 8.
	for p := 0; p < passes; p++ {
		to := now + 1
		if p < passes-1 {
			to = res.Samples[(p+1)*schedule-2].End
		}
		from := int64(0)
		if p > 0 {
			from = slices[p-1].to
		}
		slices = append(slices, slice{from: from, to: to, cpu: 1000})
	}
	slices[8].stolen = 0.4
	res.quiet(slices, timing{Window: time.Second, Steal: 0.05}, schedule)
	if want := schedule*passes - 3 - schedule; len(res.Samples) != want {
		t.Errorf("%d samples kept, want %d (all but the noisy slice's)", len(res.Samples), want)
	}
	if res.CPUNS != 1000*(passes-1) || res.WindowNS != now+1-(slices[8].to-slices[8].from) {
		t.Errorf("cpu %d ns over %d ns, want the quiet slices' sums", res.CPUNS, res.WindowNS)
	}
	// Full passes 1..10, less the noisy pass 8 and pass 9 that starts at its end.
	if len(res.Passes) != 8 {
		t.Errorf("%d full quiet passes, want 8: %+v", len(res.Passes), res.Passes)
	}
	if got := opsPerS(res); got < 99.9 || got > 100.1 {
		t.Errorf("ops_per_s = %v with one stalled pass, want the 100/s of the others", got)
	}
	res.Passes = res.Passes[:minPasses-1]
	if got, want := opsPerS(res), float64(len(res.Samples))/(float64(res.WindowNS)/1e9); got != want {
		t.Errorf("ops_per_s = %v over too few passes, want the plain %v", got, want)
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if p := percentile(xs, 90); p != 90 {
		t.Errorf("p90 of 1..100 = %v", p)
	}
	if p := percentile(xs, 99); p != 99 {
		t.Errorf("p99 of 1..100 = %v", p)
	}
	if m := median(xs); m != 50.5 {
		t.Errorf("median of 1..100 = %v", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %v", m)
	}
}

// TestCompare: equal results pass; a metric past its bound, a higher fail
// share and a differing exact count each fail; sides of several results
// compare by medians.
func TestCompare(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(edit func(*allResult)) string {
		res := &allResult{Seed: 1, Seconds: 1}
		for _, w := range workloadList {
			plain := &report{Workload: w.name, Correct: true, Attempted: 1000, Metrics: map[string]metric{}}
			for _, m := range bf.EndToEnd {
				plain.Metrics[m.Name] = metric{100, m.Unit}
			}
			traced := &report{Workload: w.name, Traced: true, Correct: true, Attempted: 1000, Metrics: map[string]metric{}}
			for _, name := range exactCounts {
				traced.Metrics[name] = metric{12345, "count"}
			}
			res.Runs = append(res.Runs, plain, traced)
		}
		if edit != nil {
			edit(res)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(nil)
	var out bytes.Buffer
	if err := compareFiles(base, mk(nil), &out); err != nil {
		t.Errorf("equal results: %v\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), "\n"); n < len(workloadList)*(len(bf.EndToEnd)+1) {
		t.Errorf("compare printed %d lines, want every workload × metric", n)
	}
	// Every end-to-end metric: worse by half its bound passes, worse by
	// twice its bound fails, on whichever side "worse" is.
	worse := func(m benchMetric, bounds float64) metric {
		if m.Better == "higher" {
			return metric{100 * (1 - bounds*m.Bound), m.Unit}
		}
		return metric{100 * (1 + bounds*m.Bound), m.Unit}
	}
	for i, m := range bf.EndToEnd {
		run := 2 * (i % len(workloadList))
		within := mk(func(r *allResult) { r.Runs[run].Metrics[m.Name] = worse(m, 0.5) })
		if err := compareFiles(base, within, &out); err != nil {
			t.Errorf("%s worse by half its bound: %v", m.Name, err)
		}
		beyond := mk(func(r *allResult) { r.Runs[run].Metrics[m.Name] = worse(m, 2) })
		if err := compareFiles(base, beyond, &out); err == nil {
			t.Errorf("%s worse by twice its bound: compare passed", m.Name)
		}
		better := mk(func(r *allResult) { r.Runs[run].Metrics[m.Name] = worse(m, -2) })
		if err := compareFiles(base, better, &out); err != nil {
			t.Errorf("%s better by twice its bound: %v", m.Name, err)
		}
	}
	// Several results on a side are compared by their medians.
	slow := func(r *allResult) { r.Runs[0].Metrics["setup_s"] = metric{200, "s"} }
	if err := compareFiles(base, mk(slow)+","+mk(nil)+","+mk(nil), &out); err != nil {
		t.Errorf("one slow run of three: %v", err)
	}
	if err := compareFiles(base, mk(slow)+","+mk(slow)+","+mk(nil), &out); err == nil {
		t.Error("two slow runs of three: compare passed")
	}
	for name, edit := range map[string]func(*allResult){
		"failed ops":    func(r *allResult) { r.Runs[4].Failed = 1 },
		"exact count":   func(r *allResult) { r.Runs[1].Metrics["core.records"] = metric{12346, "count"} },
		"missing run":   func(r *allResult) { r.Runs = r.Runs[2:] },
		"incorrect run": func(r *allResult) { r.Runs[6].Correct = false },
	} {
		if err := compareFiles(base, mk(edit), &out); err == nil {
			t.Errorf("%s: compare passed", name)
		}
	}
}

// TestBenchmarkFile holds BENCHMARK.json to the workloads in the code and
// to the limits of the benchmark contract that a typo would break.
func TestBenchmarkFile(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		benchmarkFile
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, code has %v", names, workloadNames())
	}
	seen := map[string]bool{}
	for _, m := range append(f.EndToEnd, f.PerLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q: duplicate or over the length limits", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range f.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] || len(f.PerLayer) > 128 || len(f.EndToEnd) > 16 {
		t.Error("setup_s missing, or too many metrics")
	}
}

// metricNames checks a run's metrics against a BENCHMARK.json list: the
// same names, the same units.
func metricNames(t *testing.T, got map[string]metric, want []benchMetric) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s missing from the run", m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("run printed %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
}

// TestFailedOracleStopsDaemon: set-up that fails the oracle while priming
// leaves no daemon running and no scratch directory.
func TestFailedOracleStopsDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts pdt-tad")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: root, out: t.TempDir(), seed: 1}
	if e.bin, err = buildDaemon(context.Background(), root, e.out); err != nil {
		t.Fatal(err)
	}
	e.dir = filepath.Join(e.out, "run")
	if err := os.Mkdir(e.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	e.corpus = tinyCorpus(t, "serve_warm")
	e.corpus[len(e.corpus)-1].Want["serve/cycles"] = digest([]byte("not what the daemon serves"))
	w, _ := workloadByName("serve_warm")
	if _, err := newTarget(context.Background(), e, w, false); err == nil {
		t.Fatal("priming passed against a wrong reference output")
	}
	exes, _ := filepath.Glob("/proc/[0-9]*/exe")
	for _, exe := range exes {
		if target, err := os.Readlink(exe); err == nil && strings.HasPrefix(target, e.bin) {
			t.Errorf("daemon still running: %s -> %s", exe, target)
		}
	}
	e.close()
	if _, err := os.Stat(e.dir); !os.IsNotExist(err) {
		t.Errorf("scratch directory still there: %v", err)
	}
}

// TestSmoke drives all five workload paths end to end with short
// windows: one traced pass (which visits every workload, in children and
// against real daemons) and one plain pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts pdt-tad")
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	traced, err := benchOne(ctx, options{workload: "analyze_batch", seed: 3, seconds: 1, traced: true, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if !traced.Correct || traced.Failed != 0 || traced.Attempted == 0 {
		t.Errorf("traced pass: correct=%v attempted=%d failed=%d %v", traced.Correct, traced.Attempted, traced.Failed, traced.Errors)
	}
	metricNames(t, traced.Metrics, bf.PerLayer)
	for _, name := range []string{"cell.sim_cycles", "core.records", "core.overhead_pct.large",
		"sim.untraced_run_ms_p50.large", "kernel.cycles.ms_p50.large", "stream.load_ms_p50.large",
		"cache.artifact_hit_ms_p50.large", "cache.artifact_miss_ms_p50.large", "tad.start_ms", "render.critpath.bytes"} {
		if traced.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v: its layer left no spans", name, traced.Metrics[name].Value)
		}
	}
	if v := traced.Metrics["cache.hit_share"].Value; v != 0 {
		t.Errorf("cache.hit_share on serve_cold's slice = %v, want 0", v)
	}

	// Spans: written at exit, and each op's instrumented calls cover it.
	root, _ := repoRoot()
	raw, err := os.ReadFile(filepath.Join(root, "bench", "out", "spans-analyze_batch.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sf spansFile
	if err := json.Unmarshal(raw, &sf); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(sf.Spans)
	var uncovered []float64
	for i, s := range sf.Spans {
		if s.Parent < 0 && s.Name == "analyze_batch" {
			uncovered = append(uncovered, float64(self[i])/float64(s.dur()))
		}
	}
	if len(uncovered) == 0 || len(sf.Ops) != len(uncovered) {
		t.Fatalf("%d root spans for %d ops", len(uncovered), len(sf.Ops))
	}
	if m := median(uncovered); m > 0.05 {
		t.Errorf("median op leaves %.1f%% of its time outside child spans, want under 5%%", 100*m)
	}

	plain, err := benchOne(ctx, options{workload: "serve_warm", seed: 3, seconds: 1, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Correct || plain.Failed != 0 || plain.Attempted == 0 {
		t.Errorf("plain pass: correct=%v attempted=%d failed=%d %v", plain.Correct, plain.Attempted, plain.Failed, plain.Errors)
	}
	metricNames(t, plain.Metrics, bf.EndToEnd)
	for name, m := range plain.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want a positive measurement", name, m.Value)
		}
	}
	if plain.Host.NProc == 0 || plain.Host.Go == "" || plain.Samples["large"] == 0 || plain.Samples["small"] == 0 {
		t.Errorf("report lacks host or per-class sample counts: %+v", plain)
	}
	var line bytes.Buffer
	if err := plain.print(&line); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(line.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last) != 4 {
		t.Errorf("last line must be one JSON object with four keys: %v %s", err, lines[len(lines)-1])
	}

	// Every exit path removes its scratch directory and stops its daemon.
	left, _ := filepath.Glob(filepath.Join(root, "bench", "out", "run-*"))
	if len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}
