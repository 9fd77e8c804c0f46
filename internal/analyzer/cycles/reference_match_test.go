package cycles_test

// TestDetectMatchesReference pins detection against an independent
// computation: the map-and-sorted-slice detector kept in reference_test.go.
// The invariant suite above checks structure and pool == loop; this is what
// holds Score (compared as a float, so bit for bit), Anchor and every
// Cycle.Sig to the values the reports have always carried.

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cycles"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio/tracetest"
	"github.com/celltrace/pdt/internal/workloads"
)

var referenceOptions = []cycles.Options{{}, {MinCycles: 1}, {MinCycles: 5, MinScore: 0.01}}

// matchReference compares the two detectors on every run of tr under every
// option set and returns how many of the runs detected a cycle structure.
func matchReference(t *testing.T, label string, tr *analyzer.Trace, runs int) (detected int) {
	t.Helper()
	for _, opt := range referenceOptions {
		for r := 0; r < runs; r++ {
			got, want := cycles.DetectRun(tr, r, opt), cycles.RefDetectRun(tr, r, opt)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s run %d %+v:\n got %+v\nwant %+v", label, r, opt, got, want)
			}
			if got.Detected {
				detected++
			}
		}
	}
	return detected
}

// randomCycleTrace builds 1–4 runs, each a random 2–7-ID loop body
// repeated 0–39 times with 10% noise between a random head and tail, and
// loads them through the test encoder. The ID pool holds the last ID of
// the table, an overhead ID and both lifecycle IDs, which must stay out
// of every signature.
func randomCycleTrace(t *testing.T, rng *rand.Rand) (*analyzer.Trace, int) {
	pool := []event.ID{
		event.SPEMFCGet, event.SPEMFCPut, event.SPEWaitTagEnter, event.SPEWaitTagExit,
		event.SPEReadInMboxEnter, event.SPEReadInMboxExit, event.SPEWriteOutMboxEnter,
		event.SPEWriteOutMboxExit, event.SPEAtomicEnter, event.SPEAtomicExit,
		event.SPEUserEvent, event.SyncMutexRelease, event.SPESndsig, event.NumIDs() - 1,
		event.SPETraceFlush, event.SPEProgramStart, event.SPEProgramEnd,
	}
	pick := func() event.ID { return pool[rng.Intn(len(pool))] }
	runs := 1 + rng.Intn(4)
	var rows []tracetest.Row
	for r := 0; r < runs; r++ {
		global := uint64(rng.Intn(50))
		add := func(id event.ID) {
			global += uint64(rng.Intn(40)) // 0 included: equal timestamps happen
			rows = append(rows, tracetest.Row{
				Rec:    event.Record{ID: id, Core: uint8(r), Args: tracetest.Args(id, 1, 64, 128, 3)},
				Global: global, Run: r,
			})
		}
		for i := rng.Intn(4); i > 0; i-- {
			add(pick())
		}
		body := make([]event.ID, 2+rng.Intn(6))
		for i := range body {
			body[i] = pick()
		}
		for rep := rng.Intn(40); rep > 0; rep-- {
			for _, id := range body {
				if rng.Intn(10) == 0 {
					id = pick()
				}
				add(id)
			}
		}
		for i := rng.Intn(4); i > 0; i-- {
			add(pick())
		}
	}
	// The runs overlap in time: merge them into stream order, each run's
	// own order kept.
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Global < rows[j].Global })
	return encodedTrace(t, rows), runs
}

func TestDetectMatchesReference(t *testing.T) {
	for _, name := range workloads.Names() {
		tr := cycleTrace(t, name)
		matchReference(t, name, tr, len(tr.Meta.Anchors))
	}
	rng := rand.New(rand.NewSource(1))
	detected := 0
	for i := 0; i < 3000; i++ {
		tr, runs := randomCycleTrace(t, rng)
		detected += matchReference(t, "random", tr, runs)
	}
	if detected < 1000 {
		t.Errorf("only %d random runs detected a cycle structure; the generator has gone vacuous", detected)
	}
	t.Logf("%d random runs detected a cycle structure", detected)
}

// TestEventTableFitsSignatureSet: a set of event IDs is one uint64 in the
// detector. An event table past 64 entries needs eligibleMask, scratch.bit
// and the [64]int / [65]int32 tables of detectRun and evaluate widened to
// two words first (the package's init panics with the same message).
func TestEventTableFitsSignatureSet(t *testing.T) {
	if n := event.NumIDs(); n > 64 {
		t.Fatalf("event table has %d IDs: it outgrew the one-word signature set of internal/analyzer/cycles", n)
	}
}
