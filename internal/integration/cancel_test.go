package integration

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/harness"
)

// TestCancelLatencyOnBenchmarkTrace is the acceptance check for load
// cancellation: on a multi-MiB synthetic trace (160k events), a cancel
// landing mid-pipeline must surface ctx.Err() within
// 100 ms, leaving zero pipeline goroutines behind. Under -short the
// trace shrinks with the same shape.
func TestCancelLatencyOnBenchmarkTrace(t *testing.T) {
	events := 20000
	if testing.Short() {
		events = 2000
	}
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic",
		Params:   map[string]string{"events": fmt.Sprint(events), "gap": "100"},
		Trace:    &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := traceio.Parse(res.TraceBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("trace: %d bytes, %d chunks", len(res.TraceBytes), len(f.Chunks))

	baseline := runtime.NumGoroutine()
	cancelled := 0
	for trial := 0; trial < 20; trial++ {
		// Spread cancels across the load's lifetime: the full load takes
		// tens of milliseconds, so microsecond-to-millisecond delays land
		// in decode, merge, and indexing.
		delay := time.Duration(trial) * 700 * time.Microsecond
		ctx, cancel := context.WithCancel(context.Background())
		fired := make(chan time.Time, 1)
		go func() {
			time.Sleep(delay)
			fired <- time.Now()
			cancel()
		}()
		_, err := analyzer.FromFileContext(ctx, f, analyzer.Limits{})
		ret := time.Now()
		cancel()
		if err == nil {
			continue // load beat the cancel; nothing to measure
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: unexpected error %v", trial, err)
		}
		cancelled++
		if lat := ret.Sub(<-fired); lat > 100*time.Millisecond {
			t.Fatalf("trial %d: cancel-to-return latency %v exceeds 100ms", trial, lat)
		}
	}
	if cancelled == 0 {
		t.Skip("every load completed before its cancel; latency not exercised on this host")
	}
	t.Logf("%d/20 trials cancelled mid-load", cancelled)

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
