package analyzer_test

// Host-independent allocation gate for every kind's kernel, diff in both
// modes, and the load layer under them. The summarising kernels fold the
// column store in place; a kernel that starts
// materialising an Event per row again (6.5 MB per Summarize on this
// trace before the accumulators became the kernels) fails here, on any
// machine. The batch load frames each chunk in place and decodes every
// record once, in the merge, straight into exactly sized columns: it
// allocates per chunk, never per record — 52 allocations on this trace
// with empty spare lists, 43 with the chunks' offsets taken from them;
// budgets 65 and 53 (1.25x) — and at most 1.3x what the trace it
// returns keeps. The streaming load — the same framing, placement and
// merge driven piece by piece — copies each piece's records out of the
// Write that brought them, into buffers that come back when their
// window has merged: it allocates 1.29x the batch load's bytes (with
// empty lists) in 374 allocations (384 since its spares are two
// spare.Lists; 1.82x and 417 when every piece took fresh buffers), and
// may cost at most 1.6x and 468 (1.25x). Both loads
// shed the merge's per-record time buffer and the store's raw-time
// column together, so the ratio held while both byte counts fell by a
// fifth; 1.25x of it would be above the 1.6x it already had.
//
// allocatedBytes and AllocsPerRun measure a warm call: the kernels take
// their transient arrays from the package's spare lists, which the
// warm-up call has filled. Each kernel that uses the lists has a second,
// cold row that empties them before every call, so the ledger also says
// what a call costs in a fresh process. Every row runs at GOMAXPROCS 1:
// how many arrays the warm-up call leaves depends on how many workers
// overlapped in it, so on a busy host a measured call that overlapped
// more than its warm-up allocated fresh arrays (cycles.Detect 130,184
// bytes, diff.Diff 1,555,872) and the ledger failed in most runs of two
// test binaries at once. On one processor the counts are the same from
// run to run. The rows are 1.25x the highest of sixteen runs, two at a
// time, on a 2-vCPU host (go1.24.0).

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cycles"
	"github.com/celltrace/pdt/internal/analyzer/diff"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/harness"
	"github.com/celltrace/pdt/internal/workloads"
)

// allocatedBytes reports what one call of run allocates, after a warm-up
// call has paid the one-time runtime allocations.
func allocatedBytes(run func()) uint64 {
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestKernelAllocationBudget(t *testing.T) {
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic",
		Params:   map[string]string{"events": "5000", "gap": "100"},
		Trace:    &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := analyzer.Load(bytes.NewReader(res.TraceBytes))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEvents() < 32<<10 {
		t.Fatalf("trace has %d events, the gate wants at least 32k", tr.NumEvents())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	if got := allocatedBytes(func() { analyzer.Summarize(tr) }); got >= 256<<10 {
		t.Errorf("Summarize allocated %d bytes on %d events, budget is under 256 KiB", got, tr.NumEvents())
	}

	if issues := analyzer.Validate(tr); len(issues) != 0 {
		t.Fatalf("trace is not clean: %v", issues)
	}
	minGap := analyzer.SuggestGapThreshold(tr)
	gapThreshold := func() { analyzer.SuggestGapThreshold(tr) }
	critPath := func() { analyzer.ComputeCriticalPath(tr) }
	detect := func() { cycles.Detect(tr, cycles.Options{}) }
	diffMode := func(mode string) func() {
		return func() {
			if _, err := diff.Diff(tr, tr, diff.Options{Mode: mode}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// cold runs a kernel on empty spare lists.
	cold := func(run func()) func() {
		return func() {
			analyzer.Spares.Empty()
			run()
		}
	}
	for _, k := range []struct {
		name   string
		budget float64
		run    func()
	}{
		{"Validate", 32, func() { analyzer.Validate(tr) }},
		{"Profile", 32, func() { analyzer.Profile(tr) }},
		{"TagBreakdown", 8, func() { analyzer.TagBreakdown(tr) }},
		{"FindGaps", 8, func() { analyzer.FindGaps(tr, minGap) }},
		{"SuggestGapThreshold", 0, gapThreshold},
		{"SuggestGapThreshold cold", 1, cold(gapThreshold)},
		// Measured 41 and 59 (cold): the channel queues, the result and
		// its exact segments.
		{"ComputeCriticalPath", 51, critPath},
		{"ComputeCriticalPath cold", 73, cold(critPath)},
		// Measured 147 and 165. Before the lists the diff rows were 1.25x
		// what they allocated since diff folds its state ticks straight
		// from the run machine (177 and 273); the interval lists it built
		// before took 291 and 387.
		{"diff.Diff", 183, diffMode("")},
		{"diff.Diff cold", 206, cold(diffMode(""))},
		// Event IDs index arrays in these two: per run and per core they
		// allocate a handful of buffers, where a map stamp and a sorted ID
		// slice per candidate cycle cost 160,282 and 320,957 on this trace.
		// Measured 10 and 14, and 179 and 200.
		{"cycles.Detect", 12, detect},
		{"cycles.Detect cold", 17, cold(detect)},
		{"diff.Diff align", 223, diffMode(diff.ModeAlign)},
		{"diff.Diff align cold", 250, cold(diffMode(diff.ModeAlign))},
	} {
		if got := testing.AllocsPerRun(5, k.run); got > k.budget {
			t.Errorf("%s: %.0f allocs per run, budget is %.0f", k.name, got, k.budget)
		}
	}

	// Bytes, at most: 1.25x of 6,968 and 150,328.
	type bytesRow struct {
		name   string
		budget uint64
		run    func()
	}
	bytesRows := []bytesRow{
		{"cycles.Detect", 8_710, detect},
		{"cycles.Detect cold", 187_910, cold(detect)},
	}
	if !raceEnabled { // the race detector's own allocations swamp these
		// 1.25x of: 0 and 327,680; 209,336 and 1,276,568; 487,456 and
		// 1,554,688; 503,944 and 1,694,056. Before the lists a call of
		// the last three was held under 2, 4 and 7 MiB.
		bytesRows = append(bytesRows, []bytesRow{
			{"SuggestGapThreshold", 0, gapThreshold},
			{"SuggestGapThreshold cold", 409_600, cold(gapThreshold)},
			{"ComputeCriticalPath", 261_670, critPath},
			{"ComputeCriticalPath cold", 1_595_710, cold(critPath)},
			{"diff.Diff", 609_320, diffMode("")},
			{"diff.Diff cold", 1_943_360, cold(diffMode(""))},
			{"diff.Diff align", 629_930, diffMode(diff.ModeAlign)},
			{"diff.Diff align cold", 2_117_570, cold(diffMode(diff.ModeAlign))},
		}...)
	}
	for _, k := range bytesRows {
		if got := allocatedBytes(k.run); got > k.budget {
			t.Errorf("%s allocated %d bytes on %d events, budget is %d", k.name, got, tr.NumEvents(), k.budget)
		}
	}
	if !raceEnabled {
		// This trace has almost no stalls. On a stall-heavy one a diff
		// that built every state interval only to sum them allocated
		// 995,152 bytes; folding the sums allocated 194,768, and taking
		// the transients from the spare lists 97,888. The budget is 1.25x
		// of it.
		stalls, err := analyzer.Load(bytes.NewReader(traceWorkload(t, "taskfarm")))
		if err != nil {
			t.Fatal(err)
		}
		if got := allocatedBytes(func() {
			if _, err := diff.Diff(stalls, stalls, diff.Options{}); err != nil {
				t.Fatal(err)
			}
		}); got > 122_360 {
			t.Errorf("diff.Diff allocated %d bytes on taskfarm's %d events, budget is 122,360", got, stalls.NumEvents())
		}
	}

	// The load layer, on the same image: the batch pipeline, then the
	// stream as the benchmark drives it (64 KiB writes, 4 MiB window).
	data := res.TraceBytes
	f, err := traceio.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	load := func() {
		if _, err := analyzer.FromFile(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(5, load); got > 53 {
		t.Errorf("FromFile: %.0f allocs per run over %d chunks, budget is 53", got, len(f.Chunks))
	}
	if got := testing.AllocsPerRun(5, cold(load)); got > 65 {
		t.Errorf("FromFile cold: %.0f allocs per run over %d chunks, budget is 65", got, len(f.Chunks))
	}
	stream := func() {
		l := analyzer.NewStreamLoader(analyzer.StreamOptions{
			Limits:   analyzer.Limits{StreamWindowBytes: 4 << 20},
			Validate: true,
		})
		for off := 0; off < len(data); off += 64 << 10 {
			if _, err := l.Write(data[off:min(off+64<<10, len(data))]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(5, stream); got > 468 {
		t.Errorf("streaming load: %.0f allocs per run, budget is 468", got)
	}
	loadBytes, streamBytes := allocatedBytes(cold(load)), allocatedBytes(stream)
	if ratio := float64(streamBytes) / float64(loadBytes); ratio > 1.6 {
		t.Errorf("streaming load allocated %d bytes, %.2fx the batch load's %d; budget is 1.6x",
			streamBytes, ratio, loadBytes)
	}
}

// TestLoadAllocatesWhatItKeeps holds the batch load to what the loaded
// trace retains: FromFile may allocate at most 1.3x the Footprint it
// returns. Decoding every record into a per-chunk []event.Record before
// merging it into the columns cost 2.27-2.73x on these traces; framing
// in place and decoding once, in the merge, cost 1.20-1.39x, with an
// 8-byte Global time per record beside each chunk's offsets. Reading
// that time from the record's own bytes costs 1.08-1.22x. The budget
// keeps 6% over the largest (histogram), and fails 8 of the 12 traces
// at the per-record time buffer's ratios.
func TestLoadAllocatesWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations swamp the ratio")
	}
	small := map[string]map[string]string{ // the verify skill's A/B sizes
		"julia":     {"w": "128", "h": "64", "maxiter": "32"},
		"histogram": {"size": "262144"},
		"nbody":     {"n": "256"},
		"synthetic": {"events": "2000", "gap": "100"},
	}
	type run struct {
		name   string
		params map[string]string
	}
	var runs []run
	for _, name := range workloads.Names() {
		runs = append(runs, run{name, small[name]})
	}
	runs = append(runs, run{"synthetic", map[string]string{"events": "10000", "gap": "100"}})
	for _, r := range runs {
		cfg := core.DefaultTraceConfig()
		res, err := harness.Run(harness.Spec{Workload: r.name, Params: r.params, Trace: &cfg})
		if err != nil {
			t.Fatalf("%s %v: %v", r.name, r.params, err)
		}
		f, err := traceio.Parse(res.TraceBytes)
		if err != nil {
			t.Fatal(err)
		}
		var tr *analyzer.Trace
		got := allocatedBytes(func() {
			if tr, err = analyzer.FromFile(f); err != nil {
				t.Fatal(err)
			}
		})
		ratio := float64(got) / float64(tr.Footprint())
		t.Logf("%s %v: %.2fx", r.name, r.params, ratio)
		if ratio > 1.3 {
			t.Errorf("%s %v: FromFile allocated %d bytes for a %d-byte trace (%d events), %.2fx; budget is 1.3x",
				r.name, r.params, got, tr.Footprint(), tr.NumEvents(), ratio)
		}
	}
}

// TestStreamAllocationBoundedByWindow holds a streamed load's allocation
// to its window, not to the trace's length: a 12 MB trace streamed in
// 64 KiB writes may allocate at most 3x the window plus 1 MiB, at a
// 1 MiB and a 4 MiB window. Pieces that took fresh buffers and dropped
// them at every window flush cost 45.2 and 50.7 MB here.
func TestStreamAllocationBoundedByWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations swamp these")
	}
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic",
		Params:   map[string]string{"events": "40000", "gap": "100"},
		Trace:    &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := res.TraceBytes
	for _, window := range []int64{1 << 20, 4 << 20} {
		got := allocatedBytes(func() {
			streamIn(t, data, 64<<10, analyzer.StreamOptions{
				Limits:   analyzer.Limits{StreamWindowBytes: window},
				Validate: true,
			})
		})
		t.Logf("%d-byte trace, %d-byte window: %d bytes allocated", len(data), window, got)
		if budget := uint64(3*window + 1<<20); got > budget {
			t.Errorf("streaming a %d-byte trace at a %d-byte window allocated %d bytes; budget is %d",
				len(data), window, got, budget)
		}
	}
}

// TestStreamSparesBoundedByWindow holds what a stream keeps to its
// window, whatever sizes its pieces come in. Each window of this crafted
// 3.2 MB trace holds one medium chunk and one more tiny chunk than the
// window before, so a free list that kept every buffer a window returned
// would keep one more spare each window: 7.0 MB, 27 windows, here. The
// loader's live heap before Finish may be at most 2x the window.
func TestStreamSparesBoundedByWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations swamp these")
	}
	const window, windows, medium = 256 << 10, 80, 1000
	var img bytes.Buffer
	w, err := traceio.NewWriter(&img, traceio.Header{
		Version: traceio.Version, NumSPEs: 8, TimebaseDiv: 40, ClockHz: 3_200_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMeta(&traceio.Meta{Workload: "spares"}); err != nil {
		t.Fatal(err)
	}
	stamp := uint64(0)
	chunk := func(records int) {
		var data []byte
		for range records {
			stamp++
			r := event.Record{ID: event.PPEUserEvent, Core: event.CorePPE, Time: stamp, Args: []uint64{1, stamp, 0}}
			if data, err = r.AppendTo(data); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WriteChunk(traceio.Chunk{Core: event.CorePPE, AnchorIdx: traceio.NoAnchor, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	for k := range windows {
		for range k + 1 {
			chunk(1)
		}
		chunk(medium)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := img.Bytes()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l := analyzer.NewStreamLoader(analyzer.StreamOptions{Limits: analyzer.Limits{StreamWindowBytes: window}})
	for off := 0; off < len(data); off += 4 << 10 {
		if _, err := l.Write(data[off:min(off+4<<10, len(data))]); err != nil {
			t.Fatalf("Write at offset %d: %v", off, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(data)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	res, err := l.Finish()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d-byte trace, %d events, %d-byte window: live heap grew %d bytes", len(data), res.Events, window, grew)
	if grew > 2*window {
		t.Errorf("streaming a %d-byte trace at a %d-byte window kept %d bytes live", len(data), window, grew)
	}
}

// TestStreamKeepsNothingAfterItsEnd holds a loader kept past its end to
// what its result needs: once Finish has returned, or a Write has failed
// for good (here the file-size cap, on the last Write), the window's
// columns, its pieces and the spare lists are gone. Streaming a 12 MB
// trace at a 4 MiB window may leave the live heap at most 256 KiB larger
// while the loader is still referenced; a loader that kept its spare
// lists kept 2.4 MB.
func TestStreamKeepsNothingAfterItsEnd(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations swamp these")
	}
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic",
		Params:   map[string]string{"events": "40000", "gap": "100"},
		Trace:    &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := res.TraceBytes
	for _, tc := range []struct {
		end     string
		maxFile int64
	}{
		{"Finish", 0},
		{"a failed Write", int64(len(data)) - 1},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		l := analyzer.NewStreamLoader(analyzer.StreamOptions{
			Limits:   analyzer.Limits{StreamWindowBytes: 4 << 20, MaxFileBytes: tc.maxFile},
			Validate: true,
		})
		var err error
		for off := 0; off < len(data) && err == nil; off += 64 << 10 {
			_, err = l.Write(data[off:min(off+64<<10, len(data))])
		}
		if err == nil {
			_, err = l.Finish()
		}
		if failed := err != nil; failed != (tc.maxFile > 0) {
			t.Fatalf("ending with %s: %v", tc.end, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(l)
		grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		t.Logf("after %s: live heap grew %d bytes", tc.end, grew)
		if grew > 256<<10 {
			t.Errorf("a loader kept after %s holds %d bytes live; budget is 256 KiB", tc.end, grew)
		}
	}
}
