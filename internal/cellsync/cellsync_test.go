package cellsync

import (
	"bytes"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
)

func newMachine(t *testing.T) *cell.Machine {
	t.Helper()
	cfg := cell.DefaultConfig()
	cfg.MemSize = 16 * cell.MiB
	return cell.NewMachine(cfg)
}

func TestBarrierAllArrive(t *testing.T) {
	m := newMachine(t)
	b := NewBarrier(m, 1, 4)
	var exitTimes []uint64
	m.RunMain(func(h cell.Host) {
		var hs []*cell.SPEHandle
		for i := 0; i < 4; i++ {
			w := uint64((i + 1) * 10000) // staggered arrivals
			hs = append(hs, h.Run(i, "bar", func(spu cell.SPU) uint32 {
				spu.Compute(w)
				b.Wait(spu)
				exitTimes = append(exitTimes, spu.Now())
				return 0
			}))
		}
		for _, hd := range hs {
			h.Wait(hd)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(exitTimes) != 4 {
		t.Fatalf("exits = %d", len(exitTimes))
	}
	// Nobody may exit before the last arrival (~40000 cycles).
	for i, et := range exitTimes {
		if et < 40000 {
			t.Fatalf("party %d exited at %d, before last arrival", i, et)
		}
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	m := newMachine(t)
	const parties, rounds = 3, 5
	b := NewBarrier(m, 1, parties)
	counts := make([]int, rounds)
	m.RunMain(func(h cell.Host) {
		var hs []*cell.SPEHandle
		for i := 0; i < parties; i++ {
			idx := i
			hs = append(hs, h.Run(i, "gen", func(spu cell.SPU) uint32 {
				for r := 0; r < rounds; r++ {
					spu.Compute(uint64(1000 * (idx + 1)))
					b.Wait(spu)
					counts[r]++
				}
				return 0
			}))
		}
		for _, hd := range hs {
			h.Wait(hd)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for r, c := range counts {
		if c != parties {
			t.Fatalf("round %d count = %d", r, c)
		}
	}
}

func TestBarrierWithPPEParty(t *testing.T) {
	m := newMachine(t)
	b := NewBarrier(m, 2, 2)
	m.RunMain(func(h cell.Host) {
		hd := h.Run(0, "p", func(spu cell.SPU) uint32 {
			b.Wait(spu)
			return 0
		})
		h.Compute(5000)
		b.Wait(h)
		h.Wait(hd)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierInvalidParties(t *testing.T) {
	m := newMachine(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewBarrier(m, 0, 0)
}

func TestMutexExclusion(t *testing.T) {
	m := newMachine(t)
	mu := NewMutex(m)
	counterEA := m.Alloc(8, 8)
	const perSPE = 20
	m.RunMain(func(h cell.Host) {
		var hs []*cell.SPEHandle
		for i := 0; i < 4; i++ {
			owner := uint64(i)
			hs = append(hs, h.Run(i, "mux", func(spu cell.SPU) uint32 {
				for j := 0; j < perSPE; j++ {
					mu.Lock(spu, owner)
					// Non-atomic read-modify-write under the lock: only
					// safe if the mutex actually excludes.
					v := m.ReadWord64(counterEA)
					spu.Compute(50)
					m.WriteWord64(counterEA, v+1)
					mu.Unlock(spu, owner)
				}
				return 0
			}))
		}
		for _, hd := range hs {
			h.Wait(hd)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if v := m.ReadWord64(counterEA); v != 4*perSPE {
		t.Fatalf("counter = %d, want %d (mutual exclusion broken)", v, 4*perSPE)
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	m := newMachine(t)
	mu := NewMutex(m)
	m.RunMain(func(h cell.Host) {
		mu.Lock(h, 1)
		defer func() {
			if recover() == nil {
				t.Error("no panic on foreign unlock")
			}
			mu.Unlock(h, 1)
		}()
		mu.Unlock(h, 2)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkQueueDistributesAllItemsOnce(t *testing.T) {
	m := newMachine(t)
	const items = 100
	q := NewWorkQueue(m, 7, items)
	var claimed [items]int
	m.RunMain(func(h cell.Host) {
		var hs []*cell.SPEHandle
		for i := 0; i < 4; i++ {
			hs = append(hs, h.Run(i, "wq", func(spu cell.SPU) uint32 {
				for {
					item, ok := q.Next(spu)
					if !ok {
						return 0
					}
					claimed[item]++
					spu.Compute(100)
				}
			}))
		}
		for _, hd := range hs {
			h.Wait(hd)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range claimed {
		if c != 1 {
			t.Fatalf("item %d claimed %d times", i, c)
		}
	}
	if q.Total() != items {
		t.Fatalf("Total = %d", q.Total())
	}
}

func TestWorkQueueEmptyDrainsImmediately(t *testing.T) {
	m := newMachine(t)
	q := NewWorkQueue(m, 1, 0)
	m.RunMain(func(h cell.Host) {
		if _, ok := q.Next(h); ok {
			t.Error("empty queue yielded an item")
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncEventsAppearInTrace(t *testing.T) {
	cfg := cell.DefaultConfig()
	cfg.MemSize = 16 * cell.MiB
	m := cell.NewMachine(cfg)
	s := core.NewSession(m, core.DefaultTraceConfig())
	s.Attach()
	b := NewBarrier(m, 3, 2)
	q := NewWorkQueue(m, 9, 4)
	mu := NewMutex(m)
	m.RunMain(func(h cell.Host) {
		var hs []*cell.SPEHandle
		for i := 0; i < 2; i++ {
			owner := uint64(i)
			hs = append(hs, h.Run(i, "sync", func(spu cell.SPU) uint32 {
				b.Wait(spu)
				for {
					if _, ok := q.Next(spu); !ok {
						break
					}
					mu.Lock(spu, owner)
					spu.Compute(100)
					mu.Unlock(spu, owner)
				}
				return 0
			}))
		}
		for _, hd := range hs {
			h.Wait(hd)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := analyzer.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[event.ID]int{}
	for _, id := range tr.Columns().ID {
		counts[id]++
	}
	if counts[event.SyncBarrierEnter] != 2 || counts[event.SyncBarrierExit] != 2 {
		t.Fatalf("barrier events = %d/%d", counts[event.SyncBarrierEnter], counts[event.SyncBarrierExit])
	}
	if counts[event.SyncWQGetEnter] != 6 { // 4 items + 2 drained probes
		t.Fatalf("wq enters = %d", counts[event.SyncWQGetEnter])
	}
	if counts[event.SyncMutexEnter] != 4 || counts[event.SyncMutexRelease] != 4 {
		t.Fatalf("mutex events = %d/%d", counts[event.SyncMutexEnter], counts[event.SyncMutexRelease])
	}
	if errs := analyzer.Errors(analyzer.Validate(tr)); len(errs) != 0 {
		t.Fatalf("validation: %v", errs)
	}
	sum := analyzer.Summarize(tr)
	if sum.TotalState(analyzer.StateStallSync) == 0 {
		t.Fatal("no sync-wait time attributed")
	}
}
