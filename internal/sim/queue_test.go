package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// The wakeup queue against an oracle that is not a heap: whatever the
// interleaving of schedule and pop, wakeups come out in (at, seq) order —
// the whole of the engine's determinism contract.
func TestWakeupQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 200; trial++ {
		e := NewEngine()
		var pending []wakeup // the oracle: a slice kept sorted
		check := func() {
			got := e.pop()
			if want := pending[0]; got.at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d: popped (at %d, seq %d), want (at %d, seq %d)",
					trial, got.at, got.seq, want.at, want.seq)
			}
			pending = pending[1:]
		}
		for op := 0; op < 300; op++ {
			if len(pending) > 0 && rng.Intn(3) == 0 {
				check()
				continue
			}
			at := uint64(rng.Intn(20)) // few distinct times: ties are the point
			e.schedule(nil, at)
			pending = append(pending, wakeup{at: at, seq: e.seq})
			sort.Slice(pending, func(i, j int) bool {
				a, b := pending[i], pending[j]
				return a.at < b.at || a.at == b.at && a.seq < b.seq
			})
		}
		for len(pending) > 0 {
			check()
		}
		if len(e.queue) != 0 {
			t.Fatalf("trial %d: %d wakeups left in the queue", trial, len(e.queue))
		}
	}
}
