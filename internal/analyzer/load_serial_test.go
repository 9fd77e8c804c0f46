package analyzer

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

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
// deliberately shares no anchor lookup, time placement, sort or column
// writer with the pipeline under test (resolveAnchor, placement,
// colstore.Builder). Only after the order is fixed are the records
// transposed into the columnar store, by SerialStore, which also keeps
// every row's raw decoded stamp.
func FromFileSerial(f *traceio.File) (*Reference, error) {
	if err := resolveLiveAnchors(context.Background(), f); err != nil {
		return nil, err
	}
	tr := newTrace(f)
	var rows []SerialRow
	for _, c := range f.Chunks {
		recs, trunc, err := traceio.DecodeChunk(c)
		if err != nil {
			return nil, err
		}
		if trunc {
			tr.Issues = append(tr.Issues,
				Issue{"warn", fmt.Sprintf("chunk for core %d truncated mid-record", c.Core)})
		}
		run := int32(-1)
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
			run = int32(c.AnchorIdx)
			anchorTB = a.Timebase
		}
		for _, rec := range recs {
			row := SerialRow{Rec: rec, Global: rec.Time, Run: run}
			if rec.Flags&event.FlagDecrTime != 0 {
				// SPU decrementer time: elapsed ticks since the anchor.
				row.Global += anchorTB
			}
			if rec.ID == event.StringDef && len(rec.Args) == 1 {
				tr.Strings[rec.Args[0]] = rec.Str
			}
			rows = append(rows, row)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Global < rows[j].Global })
	s, times := SerialStore(rows)
	tr.finish(s)
	return &Reference{Trace: tr, Time: times}, nil
}

// Reference is what the reference loader builds: the trace, and the raw
// stamp each row was decoded with, in row order. The store keeps no raw
// stamp; Trace.Record derives it from Global, and AssertStoresEqual
// holds the derivation to these.
type Reference struct {
	*Trace
	Time []uint64
}

// SerialRow is one decoded record placed on the global timeline by a
// reference loader: the record-shaped form of one store row.
type SerialRow struct {
	Rec    event.Record
	Global uint64
	Run    int32
}

// SerialStore transposes rows, already in stream order, into a column
// store one decoded record at a time, interning strings in row order,
// and returns every row's raw stamp beside it. The loaders write each
// row straight from its encoded bytes instead
// (colstore.Builder.AppendEncoded); this is the reference they match.
func SerialStore(rows []SerialRow) (*colstore.Store, []uint64) {
	s := &colstore.Store{ArgOff: []uint32{0}}
	times := make([]uint64, 0, len(rows))
	intern := map[string]int32{}
	for _, r := range rows {
		s.ID = append(s.ID, r.Rec.ID)
		s.Core = append(s.Core, r.Rec.Core)
		s.Flags = append(s.Flags, r.Rec.Flags)
		times = append(times, r.Rec.Time)
		s.Global = append(s.Global, r.Global)
		s.Run = append(s.Run, r.Run)
		s.Args = append(s.Args, r.Rec.Args...)
		s.ArgOff = append(s.ArgOff, uint32(len(s.Args)))
		idx := int32(-1)
		if r.Rec.Flags&event.FlagHasStr != 0 {
			var ok bool
			if idx, ok = intern[r.Rec.Str]; !ok {
				idx = int32(len(s.Strs))
				s.Strs = append(s.Strs, r.Rec.Str)
				intern[r.Rec.Str] = idx
			}
		}
		s.StrIdx = append(s.StrIdx, idx)
	}
	return s, times
}

// AssertStoresEqual compares the store of a loaded trace with a
// record-shaped one row by row on every column, and the raw stamp the
// loaded trace derives for each row (Trace.Record) with wantTime, then
// the argument arenas and the intern tables themselves. A nil store is
// an empty one; a nil wantTime skips the stamps.
func AssertStoresEqual(t testing.TB, want *colstore.Store, wantTime []uint64, got *Trace) {
	t.Helper()
	if want == nil {
		want = &colstore.Store{}
	}
	gs := got.segment()
	if want.Len() != gs.Len() {
		t.Fatalf("store rows: record-shaped path %d, loaded %d", want.Len(), gs.Len())
	}
	for i := 0; i < want.Len(); i++ {
		rec := got.Record(i)
		if want.ID[i] != gs.ID[i] || want.Core[i] != gs.Core[i] || want.Flags[i] != gs.Flags[i] ||
			wantTime != nil && wantTime[i] != rec.Time || want.Global[i] != gs.Global[i] ||
			want.Run[i] != gs.Run[i] || want.StrIdx[i] != gs.StrIdx[i] || want.Str(i) != gs.Str(i) ||
			!slices.Equal(want.EventArgs(i), gs.EventArgs(i)) {
			wantRec := want.Record(i, 0)
			if wantTime != nil {
				wantRec.Time = wantTime[i]
			}
			t.Fatalf("row %d differs:\nrecord-shaped %+v (global %d, run %d, strIdx %d)\nloaded        %+v (global %d, run %d, strIdx %d)",
				i, wantRec, want.Global[i], want.Run[i], want.StrIdx[i],
				rec, gs.Global[i], gs.Run[i], gs.StrIdx[i])
		}
	}
	if !slices.Equal(want.ArgOff, gs.ArgOff) || !slices.Equal(want.Args, gs.Args) {
		t.Fatalf("argument arenas differ:\nrecord-shaped %v %v\nloaded        %v %v", want.ArgOff, want.Args, gs.ArgOff, gs.Args)
	}
	if !slices.Equal(want.Strs, gs.Strs) {
		t.Fatalf("intern tables differ:\nrecord-shaped %q\nloaded        %q", want.Strs, gs.Strs)
	}
}
