package workloads

import (
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
)

func TestTaskFarmSmall(t *testing.T) {
	runWorkload(t, "taskfarm", map[string]string{"tasks": "16", "blockbytes": "512"}, false)
}

func TestTaskFarmDefault(t *testing.T) {
	runWorkload(t, "taskfarm", nil, false)
}

func TestTaskFarmMoreTasksThanQueueCapacity(t *testing.T) {
	// 64 tasks through a 16-slot queue: backpressure path exercised.
	runWorkload(t, "taskfarm", map[string]string{"tasks": "64", "blockbytes": "256"}, false)
}

func TestTaskFarmTraced(t *testing.T) {
	_, tr := runWorkload(t, "taskfarm", map[string]string{"tasks": "24", "blockbytes": "1024"}, true)
	if errs := analyzer.Errors(analyzer.Validate(tr)); len(errs) != 0 {
		t.Fatalf("validation: %v", errs)
	}
	s := analyzer.Summarize(tr)
	if s.TotalState(analyzer.StateStallSync) == 0 {
		t.Fatal("queue operations produced no sync-wait time")
	}
	var gets int
	for _, d := range s.DMA {
		gets += d.Gets
	}
	if gets != 24 {
		t.Fatalf("GETs = %d, want 24 (one per task)", gets)
	}
}

func TestTaskFarmConfigValidation(t *testing.T) {
	rejectsAll(t, "taskfarm", []map[string]string{
		{"tasks": "0"},
		{"tasks": "70000"},
		{"blockbytes": "100"},
		{"blockbytes": "32768"},
	})
}

func TestFnvRoundsDeterministic(t *testing.T) {
	block := []byte("abcdef0123456789")
	a := fnvRounds(block, 3)
	b := fnvRounds(block, 3)
	if a != b {
		t.Fatal("hash not deterministic")
	}
	if fnvRounds(block, 1) == fnvRounds(block, 2) {
		t.Fatal("rounds have no effect")
	}
}

func TestTaskPackUnpack(t *testing.T) {
	id, rounds := unpackTask(packTask(513, 0xDEADBEEF))
	if id != 513 || rounds != 0xDEADBEEF {
		t.Fatalf("round trip = %d, %#x", id, rounds)
	}
	rid, digest := unpackResult(packResult(7, 0xCAFE))
	if rid != 7 || digest != 0xCAFE {
		t.Fatalf("result round trip = %d, %#x", rid, digest)
	}
}
