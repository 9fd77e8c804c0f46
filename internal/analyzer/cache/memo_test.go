package cache

import (
	"context"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/harness"
)

// TestKernelPanicReleasesEntry: a kernel panic unwinds to the caller
// (pdt-tad answers it with a 500) and must leave the entry usable — the
// next Peek, Value and Artifact for the same key return instead of
// blocking on the memo lock forever.
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
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a kernel over a nil trace did not panic")
			}
		}()
		h.Value(KindSummary)
	}()
	h.f.trace = tr

	type result struct {
		v   any
		art []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		c.Peek(KeyOf(res.TraceBytes), KindSummary)
		v := h.Value(KindSummary)
		art, err := c.Artifact(ctx, res.TraceBytes, KindSummary, analyzer.Limits{})
		done <- result{v, art, err}
	}()
	select {
	case r := <-done:
		if r.v == nil || r.err != nil || len(r.art) == 0 {
			t.Fatalf("after the panic: value %v, artifact %d bytes, err %v", r.v, len(r.art), r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the entry is still locked 10s after a kernel panic")
	}
}
