package cache_test

// The byte bound is only as good as the weights: an entry must weigh what
// it keeps alive — the loaded trace and every artifact's bytes — or a
// full cache holds more than its budget.
// The first two tests measure retained heap after a forced GC and hold
// the weights, and the cache as a whole, to it; the last pins the
// bookkeeping.

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/analyzer/kinds"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// liveHeap settles the heap and returns the bytes still reachable.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first left in sync.Pools
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestFootprintMatchesRetainedHeap: for every (trace, kind), an entry
// that served one artifact weighs within 1.25x of the heap it retains.
// Each pair is measured over enough independent caches that the growth
// — about 1 MiB, and never under two entries or over 64 — dwarfs
// allocator and collector noise: a few-KiB doctor entry measured over
// eight copies (26 KiB of growth) once read 0.776 on a loaded host.
func TestFootprintMatchesRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("a heap measurement; the race detector only slows it")
	}
	ctx := context.Background()
	lim := analyzer.DefaultServiceLimits()
	for _, im := range servedTraces(t) {
		for _, kind := range cache.AnalysisKinds {
			// The probe also builds whatever global tables a kernel makes on
			// first use, before the baseline is taken.
			probe := cache.New(0, 0)
			if _, err := probe.Artifact(ctx, im.data, kind, lim); err != nil {
				t.Fatalf("%s %s: %v", im.name, kind, err)
			}
			weight := probe.Stats().Bytes
			copies := min(max(int(1<<20/weight), 2), 64)
			caches := make([]*cache.Cache, copies)
			base := liveHeap()
			for i := range caches {
				caches[i] = cache.New(0, 0)
				if _, err := caches[i].Artifact(ctx, im.data, kind, lim); err != nil {
					t.Fatal(err)
				}
			}
			retained := (liveHeap() - base) / int64(copies)
			runtime.KeepAlive(caches)
			ratio := float64(weight) / float64(retained)
			if ratio > 1.25 || ratio < 1/1.25 {
				t.Errorf("%s %s: weight %d, retained %d (ratio %.3f, want within 1.25x)",
					im.name, kind, weight, retained, ratio)
			}
		}
	}
}

// TestDoctorWeighsItsReport: a cached doctor report is kept as the
// bytes it serves, so the 3 MB trace's entry weighs a few KiB — not the
// salvaged trace the report was built from.
func TestDoctorWeighsItsReport(t *testing.T) {
	c := cache.New(0, 0)
	b, err := c.Artifact(context.Background(), traceImage(t, 10000), cache.KindDoctor, analyzer.DefaultServiceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Bytes; got >= 16<<10 {
		t.Fatalf("a cached %d-byte doctor report weighs %d, want under 16 KiB", len(b), got)
	}
}

// freshBody re-serialises a parsed trace with one extra metadata
// parameter: the same events under a new content key, the way the
// benchmark's serve_cold makes every request a miss.
func freshBody(t *testing.T, f *traceio.File, nonce int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := traceio.NewWriter(&buf, f.Header)
	if err != nil {
		t.Fatal(err)
	}
	meta := f.Meta
	meta.Params = append(append([]traceio.Param(nil), meta.Params...),
		traceio.Param{Name: "test.nonce", Value: strconv.Itoa(nonce)})
	if err := w.WriteMeta(&meta); err != nil {
		t.Fatal(err)
	}
	for _, c := range f.Chunks {
		if err := w.WriteChunk(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestColdScheduleHeapWithinBudget replays a cold schedule — every
// request a fresh body, every served kind, small traces and one
// mid-size synthetic — through a byte-bounded cache until it has evicted
// several times its budget, then holds what is still alive after a GC
// to the budget.
func TestColdScheduleHeapWithinBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("a heap measurement; the race detector only slows it")
	}
	const budget = 32 << 20
	const slack = 2 << 20 // the cache's own maps and lists, the runtime's noise
	var files []*traceio.File
	for _, im := range append(workloadTraces(t), namedImage{"synthetic.4k", traceImage(t, 4000)}) {
		if im.name == "synthetic" { // the default is the large trace
			continue
		}
		f, err := traceio.Parse(im.data)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	ctx := context.Background()
	lim := analyzer.DefaultServiceLimits()
	c := cache.New(0, budget)
	base := liveHeap()
	nonce := 0
	for round := 0; round < 3; round++ {
		for _, f := range files {
			for _, k := range kinds.All {
				nonce++
				if _, err := c.Artifact(ctx, freshBody(t, f, nonce), k.Name, lim); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	live := liveHeap() - base
	st := c.Stats()
	runtime.KeepAlive(c)
	t.Logf("%d requests: %d entries weigh %d, live heap %d (%.3f of the weight), %d evictions",
		nonce, st.Entries, st.Bytes, live, float64(live)/float64(st.Bytes), st.Evictions)
	if st.Evictions == 0 {
		t.Fatal("the schedule never filled the cache; the test measures nothing")
	}
	if st.Bytes > budget {
		t.Errorf("cache weighs %d, over its %d budget", st.Bytes, budget)
	}
	if live > budget+slack {
		t.Errorf("live heap %d after a cold schedule, over the %d budget + %d", live, budget, slack)
	}
}

// TestWeightsFollowTheirEntry: an entry weighs exactly its trace's
// Footprint plus the capacity of every artifact it holds — rendered,
// adopted from a peer, or a diff adopted under its pair key — with no
// other charge; eviction takes all of an entry's weight away, and a
// handle that outlives its entry charges nothing to the cache.
func TestWeightsFollowTheirEntry(t *testing.T) {
	ctx := context.Background()
	lim := analyzer.Limits{}
	a, b := traceImage(t, 300), traceImage(t, 500)
	c := cache.New(2, 0)
	h, err := c.Load(ctx, a, lim)
	if err != nil {
		t.Fatal(err)
	}
	want := h.Trace().Footprint()
	if got := c.Stats().Bytes; got != want {
		t.Fatalf("weight %d after load, want the trace's Footprint %d", got, want)
	}
	for _, kind := range []string{cache.KindSummary, cache.KindProfile, cache.KindCritPath, cache.KindCycles} {
		art, err := c.Artifact(ctx, a, kind, lim)
		if err != nil {
			t.Fatal(err)
		}
		want += int64(cap(art))
		if got := c.Stats().Bytes; got != want {
			t.Fatalf("weight %d after rendering %s, want %d", got, kind, want)
		}
	}
	if _, err := cache.Render(cache.KindCycles, h); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Bytes; got != want {
		t.Fatalf("weight %d after rendering from the handle, want %d: a render is not kept", got, want)
	}
	peer := make([]byte, 10, 4096)
	c.AdoptArtifact(cache.KeyOf(a), cache.KindGaps, peer)
	want += 4096
	if got := c.Stats().Bytes; got != want {
		t.Fatalf("weight %d after adopting a 4096-byte slice, want %d", got, want)
	}
	pair := make([]byte, 10, 512)
	c.AdoptArtifact(cache.PairKey(cache.KeyOf(a), cache.KeyOf(b)), "diff", pair)
	if st := c.Stats(); st.Entries != 2 || st.Bytes != want+512 {
		t.Fatalf("after adopting a diff %+v, want 2 entries weighing %d", st, want+512)
	}

	// b evicts a, the least recently used: what is left is the diff's
	// bytes and b's load, and nothing of a's.
	hb, err := c.Load(ctx, b, lim)
	if err != nil {
		t.Fatal(err)
	}
	want = 512 + hb.Trace().Footprint()
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 || st.Bytes != want {
		t.Fatalf("after eviction %+v, want two entries weighing %d", st, want)
	}
	if _, err := cache.Render(cache.KindCritPath, h); err != nil { // a's handle, its entry gone
		t.Fatal(err)
	}
	if got := c.Stats().Bytes; got != want {
		t.Fatalf("a handle outliving its entry charged the cache: %d, want %d", got, want)
	}
}
