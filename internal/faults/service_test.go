package faults

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestServicePlanEmptyAndNil: a nil plan and a zero plan inject nothing.
func TestServicePlanEmptyAndNil(t *testing.T) {
	for i, p := range []*ServicePlan{nil, {}} {
		p.BeforeIO() // must not panic
		if keep, err := p.WriteFault(10); keep != 10 || err != nil {
			t.Errorf("plan %d: WriteFault = %d, %v", i, keep, err)
		}
		if p.Kill("render") {
			t.Errorf("plan %d kills", i)
		}
	}
}

func TestDiskFullConsumption(t *testing.T) {
	p := &ServicePlan{DiskFulls: []DiskFullRule{{After: 100, Count: 2}}}
	// Below the threshold: writes sail through and accumulate.
	for i := 0; i < 4; i++ {
		if keep, err := p.WriteFault(25); keep != 25 || err != nil {
			t.Fatalf("write %d: keep=%d err=%v", i, keep, err)
		}
	}
	// 100 bytes written: the next two writes fail, then recovery.
	for i := 0; i < 2; i++ {
		if keep, err := p.WriteFault(10); !errors.Is(err, ErrDiskFull) || keep != 0 {
			t.Fatalf("armed write %d: keep=%d err=%v, want ErrDiskFull", i, keep, err)
		}
	}
	if keep, err := p.WriteFault(10); keep != 10 || err != nil {
		t.Fatalf("post-budget write: keep=%d err=%v", keep, err)
	}
}

func TestDiskFullForever(t *testing.T) {
	p := &ServicePlan{DiskFulls: []DiskFullRule{{After: 0, Count: EveryTime}}}
	for i := 0; i < 10; i++ {
		if _, err := p.WriteFault(1); !errors.Is(err, ErrDiskFull) {
			t.Fatalf("write %d survived a disk full from byte 0", i)
		}
	}
}

func TestTornWrite(t *testing.T) {
	p := &ServicePlan{Torns: []TornRule{{Nth: 2, Keep: 3}}}
	if keep, err := p.WriteFault(10); keep != 10 || err != nil {
		t.Fatalf("write 1: keep=%d err=%v", keep, err)
	}
	keep, err := p.WriteFault(10)
	if !errors.Is(err, ErrTornWrite) || keep != 3 {
		t.Fatalf("write 2: keep=%d err=%v, want 3, ErrTornWrite", keep, err)
	}
	// One-shot: the rule is consumed.
	if keep, err := p.WriteFault(10); keep != 10 || err != nil {
		t.Fatalf("write 3: keep=%d err=%v", keep, err)
	}
}

func TestTornWriteDefaultKeepIsHalf(t *testing.T) {
	p := &ServicePlan{Torns: []TornRule{{Nth: 1, Keep: -1}}}
	if keep, err := p.WriteFault(9); !errors.Is(err, ErrTornWrite) || keep != 4 {
		t.Fatalf("keep=%d err=%v, want 4 (half of 9), ErrTornWrite", keep, err)
	}
}

func TestKillPhaseNth(t *testing.T) {
	p := &ServicePlan{Kills: []KillRule{{Phase: "render", Nth: 2}}}
	if p.Kill("accept") || p.Kill("done") {
		t.Error("killed at a non-matching phase")
	}
	if p.Kill("render") {
		t.Error("killed at occurrence 1, rule says 2")
	}
	if !p.Kill("render") {
		t.Error("did not kill at occurrence 2")
	}
	if p.Kill("render") {
		t.Error("killed again after the rule fired")
	}
}

func TestSlowDiskDelays(t *testing.T) {
	p := &ServicePlan{SlowDisk: 30 * time.Millisecond}
	start := time.Now()
	p.BeforeIO()
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("BeforeIO returned after %v, want >= ~30ms", d)
	}
}

func TestNetDropConsumption(t *testing.T) {
	p := &ServicePlan{NetDrops: []NetDropRule{{Peer: "b", Count: 2}}}
	// Calls to other peers are untouched.
	if p.NetFault("a", "c") {
		t.Fatal("dropped a call to an unmatched peer")
	}
	for i := 0; i < 2; i++ {
		if !p.NetFault("a", "b") {
			t.Fatalf("call %d to b survived the drop budget", i)
		}
	}
	if p.NetFault("a", "b") {
		t.Fatal("drop rule fired past its budget")
	}

	p = &ServicePlan{NetDrops: []NetDropRule{{Peer: "*", Count: EveryTime}}}
	for _, peer := range []string{"b", "c", "b"} {
		if !p.NetFault("a", peer) {
			t.Fatalf("a drop of every call to any peer let a call to %s through", peer)
		}
	}
}

func TestPartitionSeparatesBothDirections(t *testing.T) {
	p := &ServicePlan{Partitions: []PartitionRule{{A: []string{"a"}, B: []string{"b", "c"}}}}
	for _, c := range []struct {
		self, peer string
		want       bool
	}{
		{"a", "b", true},
		{"a", "c", true},
		{"b", "a", true}, // symmetric
		{"c", "a", true},
		{"b", "c", false}, // same side
		{"a", "a", false},
		{"d", "a", false}, // outsider
	} {
		if drop := p.NetFault(c.self, c.peer); drop != c.want {
			t.Errorf("NetFault(%s, %s) drop = %v, want %v", c.self, c.peer, drop, c.want)
		}
	}
}

func TestPartitionArmAndHealAtRuntime(t *testing.T) {
	p := &ServicePlan{}
	if p.NetFault("a", "b") {
		t.Fatal("empty plan drops")
	}
	p.Partition([]string{"a"}, []string{"b"})
	if !p.NetFault("a", "b") {
		t.Fatal("armed partition did not drop")
	}
	p.Heal()
	if p.NetFault("a", "b") {
		t.Fatal("healed partition still drops")
	}
	// Heal lifts partitions only; drop budgets survive.
	p2 := &ServicePlan{NetDrops: []NetDropRule{{Peer: "b", Count: 1}}}
	p2.Heal()
	if !p2.NetFault("a", "b") {
		t.Fatal("Heal consumed an unrelated drop budget")
	}
}

func TestNetFaultNilSafe(t *testing.T) {
	var nilPlan *ServicePlan
	if nilPlan.NetFault("a", "b") {
		t.Fatal("nil plan drops")
	}
}

// TestServicePlanConcurrent hammers one plan from many goroutines: the
// counters must stay consistent (exactly Count failures) under -race.
func TestServicePlanConcurrent(t *testing.T) {
	p := &ServicePlan{
		DiskFulls: []DiskFullRule{{After: 0, Count: 64}},
		Torns:     []TornRule{{Nth: 100, Keep: 1}},
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	fails, torn := 0, 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := p.WriteFault(8)
				mu.Lock()
				switch {
				case errors.Is(err, ErrDiskFull):
					fails++
				case errors.Is(err, ErrTornWrite):
					torn++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if fails != 64 {
		t.Errorf("disk full fired %d times, want exactly 64", fails)
	}
	if torn != 1 {
		t.Errorf("torn fired %d times, want exactly 1", torn)
	}
}
