package cache_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/harness"
)

// traceImage builds a distinct serialized trace per events count.
func traceImage(t *testing.T, events int) []byte {
	t.Helper()
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic",
		Params:   map[string]string{"events": fmt.Sprint(events), "gap": "100"},
		Trace:    &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.TraceBytes
}

func TestLoadHitReturnsSameTrace(t *testing.T) {
	c := cache.New(0, 0)
	data := traceImage(t, 300)
	ctx := context.Background()

	h1, err := c.Load(ctx, data, analyzer.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.Load(ctx, data, analyzer.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if h1.Trace() != h2.Trace() {
		t.Fatal("second load did not reuse the cached *Trace")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit", st)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v, want 1 entry with positive weight", st)
	}
}

// TestSingleflightDedup races many loads of the same bytes: exactly one
// must run the load, all must observe the same trace.
func TestSingleflightDedup(t *testing.T) {
	c := cache.New(0, 0)
	data := traceImage(t, 500)
	ctx := context.Background()

	const n = 16
	traces := make([]*analyzer.Trace, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := c.Load(ctx, data, analyzer.Limits{})
			if err != nil {
				t.Error(err)
				return
			}
			traces[i] = h.Trace()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if traces[i] != traces[0] {
			t.Fatalf("goroutine %d got a different *Trace", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (singleflight)", st.Misses)
	}
	if st.Hits+st.Dedups != n-1 {
		t.Fatalf("hits %d + dedups %d, want %d", st.Hits, st.Dedups, n-1)
	}
}

func TestEntryBoundEvictsLRU(t *testing.T) {
	c := cache.New(2, 0)
	ctx := context.Background()
	a := traceImage(t, 200)
	b := traceImage(t, 400)
	d := traceImage(t, 600)

	for _, img := range [][]byte{a, b, d} {
		if _, err := c.Load(ctx, img, analyzer.Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// a was least recently used: reloading it must miss again.
	if _, err := c.Load(ctx, a, analyzer.Limits{}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Misses; got != 4 {
		t.Fatalf("misses = %d, want 4 (a evicted and reloaded)", got)
	}
}

func TestByteBoundEvicts(t *testing.T) {
	ctx := context.Background()
	a := traceImage(t, 400)
	// Budget that holds one loaded trace but not two.
	h, err := cache.New(0, 0).Load(ctx, a, analyzer.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	budget := h.Trace().Footprint() + h.Trace().Footprint()/2

	c := cache.New(0, budget)
	if _, err := c.Load(ctx, a, analyzer.Limits{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx, traceImage(t, 500), analyzer.Limits{}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats %+v: expected the byte bound to evict", st)
	}
	if st.Bytes > budget {
		t.Fatalf("retained %d bytes over budget %d", st.Bytes, budget)
	}
}

func TestLoadErrorNotCached(t *testing.T) {
	c := cache.New(0, 0)
	ctx := context.Background()
	junk := []byte("not a trace at all")

	for i := 0; i < 2; i++ {
		if _, err := c.Load(ctx, junk, analyzer.Limits{}); err == nil {
			t.Fatal("junk loaded without error")
		}
	}
	st := c.Stats()
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (failures must not be cached)", st.Misses)
	}
	if st.Entries != 0 {
		t.Fatalf("entries = %d, want 0 after failed loads", st.Entries)
	}
}

// TestDoctorCachedBesideFailedLoad: corrupt bytes fail the strict load
// but still produce a cacheable doctor report under the same key.
func TestDoctorCachedBesideFailedLoad(t *testing.T) {
	c := cache.New(0, 0)
	ctx := context.Background()
	img := traceImage(t, 300)
	img[len(img)/2] ^= 0xFF // corrupt the body

	if _, err := c.Load(ctx, img, analyzer.Limits{}); err == nil {
		t.Fatal("corrupt image loaded cleanly; test needs a corrupting flip")
	}
	d1, err := c.Artifact(ctx, img, cache.KindDoctor, analyzer.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c.Artifact(ctx, img, cache.KindDoctor, analyzer.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if &d1[0] != &d2[0] {
		t.Fatal("doctor report not cached")
	}
	st := c.Stats()
	if st.Hits != 1 {
		t.Fatalf("stats %+v: want exactly 1 hit (second doctor)", st)
	}
}

// TestChurnMixedTracesNoBleed hammers a 2-entry cache with concurrent
// requests for four distinct traces and asserts every response matches
// that trace's baseline — no cross-trace result bleed — while retention
// stays within the bound. Run under -race this also proves the shared
// trace and memos are data-race-free under churn.
func TestChurnMixedTracesNoBleed(t *testing.T) {
	ctx := context.Background()
	images := [][]byte{
		traceImage(t, 200), traceImage(t, 350),
		traceImage(t, 500), traceImage(t, 650),
	}
	// Baselines via the uncached path.
	type base struct {
		events int
		wall   uint64
		total  uint64
	}
	bases := make([]base, len(images))
	for i, img := range images {
		tr, err := analyzer.Load(bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		s := analyzer.Summarize(tr)
		cp := analyzer.ComputeCriticalPathSerial(tr)
		bases[i] = base{events: tr.NumEvents(), wall: s.WallTicks, total: cp.Total}
	}

	c := cache.New(2, 0)
	const workers, iters = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (w + i) % len(images)
				h, err := c.Load(ctx, images[k], analyzer.Limits{})
				if err != nil {
					t.Error(err)
					return
				}
				if got := h.Trace().NumEvents(); got != bases[k].events {
					t.Errorf("trace %d: %d events, want %d (cross-trace bleed?)", k, got, bases[k].events)
					return
				}
				if got := analyzer.Summarize(h.Trace()).WallTicks; got != bases[k].wall {
					t.Errorf("trace %d: wall %d, want %d", k, got, bases[k].wall)
					return
				}
				if got := analyzer.ComputeCriticalPath(h.Trace()).Total; got != bases[k].total {
					t.Errorf("trace %d: critpath total %d, want %d", k, got, bases[k].total)
					return
				}
				for _, kind := range []string{cache.KindProfile, cache.KindGaps} {
					if _, err := cache.Render(kind, h); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > 2 {
		t.Fatalf("retained %d entries, bound is 2", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatalf("stats %+v: churn should evict", st)
	}
	// Whether the churn itself ever hit depends on the schedule: eight
	// workers walking four images in step can turn every repeat into a
	// singleflight join. So make one image resident with the workers gone,
	// then ask for it again: that request can only be a hit.
	if _, err := c.Load(ctx, images[0], analyzer.Limits{}); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if before.Entries == 0 {
		t.Fatalf("stats %+v: nothing resident after a settled load", before)
	}
	if _, err := c.Load(ctx, images[0], analyzer.Limits{}); err != nil {
		t.Fatal(err)
	}
	if after := c.Stats(); after.Hits != before.Hits+1 {
		t.Fatalf("reload of a resident image: hits %d -> %d, want +1 (stats %+v)", before.Hits, after.Hits, after)
	}
}

func TestPeekNeverComputes(t *testing.T) {
	ctx := context.Background()
	c := cache.New(0, 0)
	img := traceImage(t, 200)
	key := cache.KeyOf(img)

	// Cold cache: a peek answers "no" without loading anything.
	if _, ok := c.Peek(key, cache.KindSummary); ok {
		t.Fatal("cold peek claimed a hit")
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Fatalf("peek left tracks: %+v", st)
	}

	want, err := c.Artifact(ctx, img, cache.KindSummary, analyzer.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Peek(key, cache.KindSummary)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("warm peek ok=%v", ok)
	}
	// The artifact kind matters: only summary was rendered.
	if _, ok := c.Peek(key, cache.KindProfile); ok {
		t.Fatal("peek invented an unrendered kind")
	}
}

func TestAdoptArtifactWithoutLocalFlight(t *testing.T) {
	// A memory-only replica adopting a peer-fetched artifact for a trace
	// it never loaded must retain (and serve) it.
	c := cache.New(0, 0)
	key := cache.KeyOf([]byte("trace bytes this replica never saw"))
	art := []byte(`{"adopted":true}`)

	c.AdoptArtifact(key, cache.KindSummary, art)
	got, ok := c.Peek(key, cache.KindSummary)
	if !ok || !bytes.Equal(got, art) {
		t.Fatalf("adopted artifact not peekable: ok=%v", ok)
	}
	// First adoption wins.
	kept := c.AdoptArtifact(key, cache.KindSummary, []byte(`{"other":1}`))
	if !bytes.Equal(kept, art) {
		t.Fatal("second adoption replaced the first")
	}
	if st := c.Stats(); st.Bytes != int64(len(art)) {
		t.Fatalf("adopted bytes not accounted: %+v", st)
	}
}

func TestAdoptedEntriesEvict(t *testing.T) {
	c := cache.New(2, 0)
	for i := 0; i < 5; i++ {
		key := cache.KeyOf([]byte(fmt.Sprintf("trace %d", i)))
		c.AdoptArtifact(key, cache.KindSummary, []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 3 {
		t.Fatalf("entries=%d evictions=%d, want 2/3", st.Entries, st.Evictions)
	}
	// The newest adoption survives LRU.
	if _, ok := c.Peek(cache.KeyOf([]byte("trace 4")), cache.KindSummary); !ok {
		t.Fatal("most recent adoption evicted")
	}
}

func TestAdoptedBytesSurviveLocalLoad(t *testing.T) {
	ctx := context.Background()
	c := cache.New(0, 0)
	img := traceImage(t, 150)
	key := cache.KeyOf(img)

	adopted := []byte(`{"from":"peer"}`)
	c.AdoptArtifact(key, cache.KindSummary, adopted)
	// A later local load settles a flight for the same key without
	// rendering the summary; the adopted bytes must stay visible.
	if _, err := c.Load(ctx, img, analyzer.Limits{}); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Peek(key, cache.KindSummary)
	if !ok || !bytes.Equal(got, adopted) {
		t.Fatalf("adopted bytes hidden by the local flight: ok=%v", ok)
	}
	// A kind the adoption never covered still renders locally.
	if _, err := c.Artifact(ctx, img, cache.KindProfile, analyzer.Limits{}); err != nil {
		t.Fatal(err)
	}
}
