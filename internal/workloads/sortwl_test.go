package workloads

import (
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core/event"
)

func TestSortSmall(t *testing.T) {
	runWorkload(t, "sort", map[string]string{"elements": "8192", "chunk": "1024"}, false)
}

func TestSortSingleChunk(t *testing.T) {
	runWorkload(t, "sort", map[string]string{"elements": "512", "chunk": "512"}, false)
}

func TestSortTraced(t *testing.T) {
	_, tr := runWorkload(t, "sort", map[string]string{"elements": "16384", "chunk": "2048"}, true)
	counts := map[event.ID]int{}
	for _, id := range tr.Columns().ID {
		counts[id]++
	}
	// 8 chunks: one GET and one PUT each.
	if counts[event.SPEMFCGet] != 8 || counts[event.SPEMFCPut] != 8 {
		t.Fatalf("gets/puts = %d/%d", counts[event.SPEMFCGet], counts[event.SPEMFCPut])
	}
	if errs := analyzer.Errors(analyzer.Validate(tr)); len(errs) != 0 {
		t.Fatalf("validation: %v", errs)
	}
}

func TestSortPPEMergeOnCriticalPath(t *testing.T) {
	// The serial PPE merge must appear in the critical-path attribution.
	_, tr := runWorkload(t, "sort", map[string]string{"elements": "16384", "chunk": "2048"}, true)
	cp := analyzer.ComputeCriticalPath(tr)
	if cp.CoreTicks[event.CorePPE] == 0 {
		t.Fatal("PPE merge missing from critical path")
	}
}

func TestSortConfigValidation(t *testing.T) {
	rejectsAll(t, "sort", []map[string]string{
		{"chunk": "6"},                       // not multiple of 4
		{"chunk": "8192"},                    // over DMA limit
		{"elements": "1000", "chunk": "512"}, // not a multiple
		{"elements": "0"},
	})
}
