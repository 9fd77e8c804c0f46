package cache

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/kinds"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/harness"
)

// TestKernelPanicReleasesEntry: a kernel panic inside Render, or inside
// the render Artifact leads, unwinds to the caller (pdt-tad answers it
// with a 500) and must leave the entry usable — the next Peek, Render
// and Artifact for the same key return instead of blocking forever.
func TestKernelPanicReleasesEntry(t *testing.T) {
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic",
		Params:   map[string]string{"events": "300", "gap": "100"},
		Trace:    &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c := New(0, 0)
	h, err := c.Load(ctx, res.TraceBytes, analyzer.Limits{})
	if err != nil {
		t.Fatal(err)
	}

	tr := h.f.trace
	h.f.trace = nil // every kernel dereferences its trace
	for _, render := range []func(){
		func() { Render(KindSummary, h) },
		func() { c.Artifact(ctx, res.TraceBytes, KindSummary, analyzer.Limits{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("a kernel over a nil trace did not panic")
				}
			}()
			render()
		}()
	}
	h.f.trace = tr

	type result struct {
		rendered, art []byte
		err           error
	}
	done := make(chan result, 1)
	go func() {
		c.Peek(KeyOf(res.TraceBytes), KindSummary)
		rendered, rerr := Render(KindSummary, h)
		art, err := c.Artifact(ctx, res.TraceBytes, KindSummary, analyzer.Limits{})
		done <- result{rendered, art, errors.Join(rerr, err)}
	}()
	select {
	case r := <-done:
		if r.err != nil || len(r.art) == 0 || !bytes.Equal(r.rendered, r.art) {
			t.Fatalf("after the panic: rendered %d bytes, artifact %d bytes, err %v", len(r.rendered), len(r.art), r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the entry is still locked 10s after a kernel panic")
	}
}

// TestConcurrentRendersRunKernelOnce: callers that race for one kind of
// one trace share a single kernel run and get the same bytes.
func TestConcurrentRendersRunKernelOnce(t *testing.T) {
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic",
		Params:   map[string]string{"events": "300", "gap": "100"},
		Trace:    &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	k, _ := kinds.Lookup(KindSummary)
	orig := *k
	defer func() { *k = orig }()
	var runs atomic.Int32
	release := make(chan struct{})
	k.Compute = func(tr *analyzer.Trace) any {
		runs.Add(1)
		<-release
		return orig.Compute(tr)
	}

	c := New(0, 0)
	const callers = 4
	outs := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], _ = c.Artifact(context.Background(), res.TraceBytes, KindSummary, analyzer.Limits{})
		}()
	}
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let the other callers reach the render
	close(release)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d callers ran the kernel %d times, want once", callers, n)
	}
	for i, out := range outs {
		if len(out) == 0 || !bytes.Equal(out, outs[0]) {
			t.Fatalf("caller %d got %d bytes, not the shared render", i, len(out))
		}
	}
}
