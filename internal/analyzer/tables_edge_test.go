package analyzer_test

// The edges of the flat per-ID tables the record loops index (the event
// counts of Summarize, the stall tables of the run machine and the PPE
// lanes): IDs the event table does not hold — which only a hand-assembled
// store can carry, the decoder rejects them — count like any other and
// open, close and disturb nothing.

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/harness"
)

func TestSummarizeEventCountKeys(t *testing.T) {
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "pipeline",
		Params:   map[string]string{"blocks": "8", "blockbytes": "1024"},
		Trace:    &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := analyzer.Load(bytes.NewReader(res.TraceBytes))
	if err != nil {
		t.Fatal(err)
	}
	want := map[event.ID]int{}
	for _, id := range tr.Columns().ID {
		want[id]++
	}
	if got := analyzer.Summarize(tr).EventCount; !reflect.DeepEqual(got, want) {
		t.Errorf("EventCount = %v\nwant one key per distinct ID of the column, none zero: %v", got, want)
	}

	n := event.NumIDs()
	hand := &analyzer.Trace{}
	var evs []analyzer.Event
	for i, id := range []event.ID{0x7fff, n, event.SPEUserLog, 0x7fff, 0, n, 0x7fff} {
		evs = append(evs, analyzer.Event{Record: event.Record{ID: id}, Global: uint64(i), Run: 0})
	}
	hand.SetEvents(evs)
	want = map[event.ID]int{0x7fff: 3, n: 2, event.SPEUserLog: 1, 0: 1}
	if got := analyzer.Summarize(hand).EventCount; !reflect.DeepEqual(got, want) {
		t.Errorf("hand-assembled EventCount = %v, want %v", got, want)
	}
}

func TestStallTablesIgnoreForeignIDs(t *testing.T) {
	build := func(foreign ...event.ID) *analyzer.Trace {
		var evs []analyzer.Event
		add := func(id event.ID, core uint8, run int, global uint64) {
			evs = append(evs, analyzer.Event{
				Record: event.Record{ID: id, Core: core, Args: []uint64{1, 2}},
				Global: global, Run: run,
			})
			for i, f := range foreign { // between this event and the next
				evs = append(evs, analyzer.Event{Record: event.Record{ID: f, Core: core}, Global: global + 1 + uint64(i), Run: run})
			}
		}
		add(event.SPEProgramStart, 0, 0, 0)
		add(event.SPEWaitTagEnter, 0, 0, 10)
		add(event.SPEWaitTagExit, 0, 0, 50)
		add(event.SPEReadInMboxEnter, 0, 0, 60)
		add(event.SPEReadInMboxExit, 0, 0, 90)
		add(event.PPEWaitEnter, event.CorePPE, -1, 100)
		add(event.PPEWaitExit, event.CorePPE, -1, 180)
		tr := &analyzer.Trace{Meta: traceio.Meta{Anchors: []traceio.Anchor{{SPE: 0, Program: "p"}}}}
		tr.SetEvents(evs)
		return tr
	}
	plain := build()
	dirty := build(0, event.NumIDs(), 64, 0x7fff)

	ivs := analyzer.RunIntervals(plain, 0)
	if got := analyzer.RunIntervals(dirty, 0); len(ivs) == 0 || !reflect.DeepEqual(got, ivs) {
		t.Errorf("RunIntervals with foreign IDs = %v, want %v", got, ivs)
	}
	ticks := analyzer.Summarize(plain).Runs[0].StateTicks
	if ticks[analyzer.StateStallDMA] != 40 || ticks[analyzer.StateStallMbox] != 30 {
		t.Errorf("StateTicks = %v, want 40 dma-wait and 30 mbox-wait", ticks)
	}
	if got := analyzer.Summarize(dirty).Runs[0].StateTicks; got != ticks {
		t.Errorf("StateTicks with foreign IDs = %v, want %v", got, ticks)
	}
	// The PPE lane's trailing compute stretch follows the lane's last
	// record, foreign or not, so compare the wait the Enter/Exit pair spans.
	lane, dirtyLane := analyzer.PPEIntervals(plain), analyzer.PPEIntervals(dirty)
	if len(lane) == 0 || len(dirtyLane) == 0 || lane[0] != dirtyLane[0] || lane[0].State != analyzer.StateHostWait {
		t.Errorf("PPE lane = %v, with foreign IDs %v; want the same leading spe-wait", lane, dirtyLane)
	}
}
