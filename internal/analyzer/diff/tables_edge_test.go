package diff_test

import (
	"reflect"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/diff"
	"github.com/celltrace/pdt/internal/core/event"
)

// TestDiffGroupsIgnoreForeignIDs: the per-record group count indexes a
// flat table by event ID. IDs the table does not hold (a hand-assembled
// store can carry them; the decoder rejects them) belong to no group, so
// they leave every group count where it was and a self-diff zero.
func TestDiffGroupsIgnoreForeignIDs(t *testing.T) {
	build := func(foreign ...event.ID) *analyzer.Trace {
		var evs []analyzer.Event
		for i := uint64(0); i < 6; i++ {
			for j, id := range append([]event.ID{event.SPEMFCGet, event.SPEWaitTagEnter, event.SPEWaitTagExit, event.SPEUserLog}, foreign...) {
				evs = append(evs, analyzer.Event{
					Record: event.Record{ID: id, Core: 0, Args: []uint64{0, 64, 128, 1}},
					Global: i*100 + uint64(j), Run: 0,
				})
			}
		}
		tr := &analyzer.Trace{}
		tr.SetEvents(evs)
		return tr
	}
	plain, err := diff.Diff(build(), build(), diff.Options{Mode: diff.ModeAlign})
	if err != nil {
		t.Fatal(err)
	}
	tr := build(0, event.NumIDs(), 64, 0x7fff)
	dirty, err := diff.Diff(tr, tr, diff.Options{Mode: diff.ModeAlign})
	if err != nil {
		t.Fatal(err)
	}
	if !dirty.Zero() {
		t.Error("self-diff of a trace with foreign IDs is not zero")
	}
	if !reflect.DeepEqual(dirty.Groups, plain.Groups) {
		t.Errorf("groups with foreign IDs = %+v\nwant %+v", dirty.Groups, plain.Groups)
	}
	if mfc := plain.Groups[1]; mfc.Group != event.GroupMFC || mfc.CountA != 18 {
		t.Errorf("mfc group = %+v, want 18 records a side", mfc)
	}
}
