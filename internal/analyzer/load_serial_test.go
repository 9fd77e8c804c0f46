package analyzer

import (
	"fmt"
	"sort"

	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// FromFileSerial is the single-threaded reference load path: decode the
// chunks one after another into a single record-shaped slice and
// establish the global order with one stable sort, exactly as the
// analyzer did before the parallel pipeline existed. It defines the
// ordering contract FromFile must reproduce (ascending Global, ties in
// file order) and is what the equivalence tests compare against, so it
// deliberately shares no anchor lookup, time placement or sort with the
// pipeline under test (resolveAnchor, placement). Only after the order
// is fixed are the events transposed into the columnar store.
func FromFileSerial(f *traceio.File) (*Trace, error) {
	resolveLiveAnchors(f)
	tr := newTrace(f)
	var events []Event
	argWords := 0
	for _, c := range f.Chunks {
		recs, trunc, err := traceio.DecodeChunk(c)
		if err != nil {
			return nil, err
		}
		if trunc {
			tr.Issues = append(tr.Issues,
				Issue{"warn", fmt.Sprintf("chunk for core %d truncated mid-record", c.Core)})
		}
		run := -1
		var anchorTB uint64
		if c.Core != event.CorePPE {
			if int(c.AnchorIdx) >= len(f.Meta.Anchors) {
				return nil, fmt.Errorf("analyzer: chunk for SPE %d references anchor %d of %d",
					c.Core, c.AnchorIdx, len(f.Meta.Anchors))
			}
			a := f.Meta.Anchors[c.AnchorIdx]
			if a.SPE != int(c.Core) {
				tr.Issues = append(tr.Issues,
					Issue{"error", fmt.Sprintf("anchor %d is for SPE %d but chunk is core %d", c.AnchorIdx, a.SPE, c.Core)})
			}
			run = int(c.AnchorIdx)
			anchorTB = a.Timebase
		}
		for _, rec := range recs {
			ev := Event{Record: rec, Run: run}
			if rec.Flags&event.FlagDecrTime != 0 {
				// SPU decrementer time: elapsed ticks since the anchor.
				ev.Global = anchorTB + rec.Time
			} else {
				ev.Global = rec.Time
			}
			if rec.ID == event.StringDef && len(rec.Args) == 1 {
				tr.Strings[rec.Args[0]] = rec.Str
			}
			argWords += len(rec.Args)
			events = append(events, ev)
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].Global < events[j].Global
	})
	b := colstore.NewBuilder(len(events), argWords)
	for i := range events {
		ev := &events[i]
		b.Append(&ev.Record, ev.Global, int32(ev.Run))
	}
	tr.finish(b)
	return tr, nil
}
