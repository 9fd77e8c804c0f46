package workloads

import (
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core/event"
)

func TestNBodySmall(t *testing.T) {
	runWorkload(t, "nbody", map[string]string{"n": "64"}, false)
}

func TestNBodyDefault(t *testing.T) {
	runWorkload(t, "nbody", nil, false)
}

func TestNBodyTracedRingTraffic(t *testing.T) {
	_, tr := runWorkload(t, "nbody", map[string]string{"n": "128"}, true)
	counts := map[event.ID]int{}
	var putBytes uint64
	col := tr.Columns()
	for i, id := range col.ID {
		counts[id]++
		if id == event.SPEMFCPut {
			putBytes += col.EventArgs(i)[2]
		}
	}
	// 8 SPEs x 7 ring passes, one sndsig each.
	if counts[event.SPESndsig] != 8*7 {
		t.Fatalf("sndsig = %d, want 56", counts[event.SPESndsig])
	}
	// Ring PUTs: 56 block passes of 16 particles x 12 bytes, plus 8
	// final acc PUTs of 16x8 bytes.
	wantRing := uint64(56 * 16 * 12)
	wantAcc := uint64(8 * 16 * 8)
	if putBytes != wantRing+wantAcc {
		t.Fatalf("put bytes = %d, want %d", putBytes, wantRing+wantAcc)
	}
	if errs := analyzer.Errors(analyzer.Validate(tr)); len(errs) != 0 {
		t.Fatalf("validation: %v", errs)
	}
	// The ring is all-to-all LS traffic: no main-memory reads beyond the
	// initial block loads.
	s := analyzer.Summarize(tr)
	var gets int
	for _, d := range s.DMA {
		gets += d.Gets
	}
	if gets != 8 {
		t.Fatalf("GETs = %d, want 8 (one resident block each)", gets)
	}
}

func TestNBodyConfigValidation(t *testing.T) {
	w := NewNBody()
	for _, bad := range []map[string]string{
		{"n": "7"},  // not multiple of 8
		{"n": "0"},  // zero
		{"n": "xx"}, // parse error
	} {
		if err := w.Configure(bad); err == nil {
			t.Fatalf("accepted %v", bad)
		}
	}
	// Divisibility vs SPE count is checked at Prepare.
	if err := w.Configure(map[string]string{"n": "40"}); err != nil {
		t.Fatal(err)
	}
	mc := cell.DefaultConfig()
	mc.MemSize = 16 * cell.MiB
	m := cell.NewMachine(mc)
	if err := w.Prepare(m); err == nil {
		t.Fatal("n=40 with 8 SPEs accepted")
	}
}

func TestAccumulateSymmetry(t *testing.T) {
	// Two equal masses attract each other with opposite accelerations.
	pos := []float32{0, 0, 1, 1, 0, 1}
	ax := make([]float32, 2)
	ay := make([]float32, 2)
	accumulate(ax, ay, pos, pos, true)
	if ax[0] <= 0 || ax[1] >= 0 {
		t.Fatalf("accelerations not opposed: ax = %v", ax)
	}
	if ax[0] != -ax[1] {
		t.Fatalf("not symmetric: %v", ax)
	}
	if ay[0] != 0 || ay[1] != 0 {
		t.Fatalf("spurious y acceleration: %v", ay)
	}
}
