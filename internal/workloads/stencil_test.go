package workloads

import (
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core/event"
)

func TestStencilSmall(t *testing.T) {
	runWorkload(t, "stencil", map[string]string{"w": "64", "h": "32", "iters": "4"}, false)
}

func TestStencilDefaultSize(t *testing.T) {
	runWorkload(t, "stencil", nil, false)
}

func TestStencilSingleIteration(t *testing.T) {
	runWorkload(t, "stencil", map[string]string{"w": "64", "h": "16", "iters": "1"}, false)
}

func TestStencilFewerRowsThanSPEs(t *testing.T) {
	// 4 rows over 8 SPEs: half the SPEs idle through barriers only.
	runWorkload(t, "stencil", map[string]string{"w": "64", "h": "4", "iters": "3"}, false)
}

func TestStencilTracedHaloTraffic(t *testing.T) {
	_, tr := runWorkload(t, "stencil", map[string]string{"w": "64", "h": "64", "iters": "4"}, true)
	counts := map[event.ID]int{}
	for _, id := range tr.Columns().ID {
		counts[id]++
	}
	// 8 SPEs, interior pairs exchange 2 halo rows per iteration: SPE 0
	// and 7 send one each, SPEs 1..6 send two each -> 14 sends/iter.
	if counts[event.SPESndsig] != 14*4 {
		t.Fatalf("sndsig events = %d, want %d", counts[event.SPESndsig], 14*4)
	}
	if counts[event.SyncBarrierEnter] != 8*4 {
		t.Fatalf("barrier enters = %d, want 32", counts[event.SyncBarrierEnter])
	}
	if counts[event.SPEReadSignalEnter] == 0 {
		t.Fatal("no signal reads recorded")
	}
	s := analyzer.Summarize(tr)
	if s.TotalState(analyzer.StateStallSignal) == 0 {
		t.Fatal("no signal-wait time attributed")
	}
	if errs := analyzer.Errors(analyzer.Validate(tr)); len(errs) != 0 {
		t.Fatalf("validation: %v", errs)
	}
}

func TestStencilTracingPreservesResult(t *testing.T) {
	runWorkload(t, "stencil", map[string]string{"w": "64", "h": "32", "iters": "3"}, true)
}

func TestStencilConfigValidation(t *testing.T) {
	w := NewStencil()
	for _, bad := range []map[string]string{
		{"w": "10"},    // not multiple of 4 / too small
		{"w": "8192"},  // row exceeds DMA
		{"h": "2"},     // too small
		{"iters": "0"}, // zero
	} {
		if err := w.Configure(bad); err == nil {
			t.Fatalf("accepted %v", bad)
		}
	}
}

func TestStencilRowKernel(t *testing.T) {
	up := []float32{0, 1, 2, 3}
	mid := []float32{4, 5, 6, 7}
	down := []float32{8, 9, 10, 11}
	out := make([]float32, 4)
	stencilRow(out, up, mid, down)
	if out[0] != 0 || out[3] != 0 {
		t.Fatal("boundary not zeroed")
	}
	want := float32(0.2 * (5 + 4 + 6 + 1 + 9))
	if out[1] != want {
		t.Fatalf("out[1] = %g, want %g", out[1], want)
	}
}
