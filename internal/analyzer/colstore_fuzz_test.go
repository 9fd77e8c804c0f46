package analyzer_test

// FuzzColumnarRoundTrip drives mutated trace images through the salvage
// loader and the columnar store: the store salvage loads must equal,
// column for column, the one the record-shaped path builds from the same
// salvaged chunks; whatever events it holds must survive materialization
// (Events) and re-ingestion (SetEvents) unchanged; the analysis kernels
// must run on the round-tripped store without panicking; and the
// footprint must stay positive.

import (
	"bytes"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// buildColFuzzTrace produces a structurally valid two-core trace image
// for mutation, including string-carrying records so the intern table
// is exercised: a STRING_DEF per core, and at the end of core 1's chunk
// a STRING_DEF whose payload is empty and a string on a record that is
// not a STRING_DEF.
func buildColFuzzTrace(tb testing.TB) []byte {
	tb.Helper()
	var out bytes.Buffer
	w, err := traceio.NewWriter(&out, traceio.Header{
		Version: traceio.Version, NumSPEs: 8, TimebaseDiv: 40, ClockHz: 3_200_000_000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.WriteMeta(&traceio.Meta{
		Workload: "fuzz",
		Anchors: []traceio.Anchor{
			{SPE: 0, Timebase: 100, Loaded: 0xFFFFFFFF, Program: "p"},
			{SPE: 1, Timebase: 120, Loaded: 0xFFFFFFFF, Program: "p"},
		},
	}); err != nil {
		tb.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		var data []byte
		sd := event.Record{ID: event.StringDef, Core: uint8(c), Flags: event.FlagDecrTime | event.FlagHasStr,
			Time: 1, Args: []uint64{uint64(c + 1)}, Str: "fuzz-name"}
		data, err = sd.AppendTo(data)
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			r := event.Record{ID: event.SPEMFCGet, Core: uint8(c), Flags: event.FlagDecrTime,
				Time: uint64(10 + i*10), Args: []uint64{0, 64, 128, uint64(i % 16)}}
			data, err = r.AppendTo(data)
			if err != nil {
				tb.Fatal(err)
			}
		}
		if c == 1 {
			for _, r := range []event.Record{
				{ID: event.StringDef, Core: 1, Flags: event.FlagDecrTime | event.FlagHasStr,
					Time: 400, Args: []uint64{3}},
				{ID: event.SPEUserEvent, Core: 1, Flags: event.FlagDecrTime | event.FlagHasStr,
					Time: 410, Args: []uint64{7, 0, 0}, Str: "note"},
			} {
				if data, err = r.AppendTo(data); err != nil {
					tb.Fatal(err)
				}
			}
		}
		if err := w.WriteChunk(traceio.Chunk{Core: uint8(c), AnchorIdx: uint16(c), Data: data}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

func FuzzColumnarRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint8(0), uint8(0x5A), uint16(0))
	f.Add(uint32(30), uint8(1), uint8(0xC5), uint16(0))
	f.Add(uint32(60), uint8(2), uint8(0), uint16(0))
	f.Add(uint32(100), uint8(0), uint8(0xFF), uint16(50))
	f.Add(uint32(0), uint8(3), uint8(0), uint16(9))
	// Intact: both string records at the end of core 1's chunk (the empty
	// payload, the string on a USER_EVENT) land in the store.
	f.Add(uint32(0), uint8(3), uint8(0), uint16(0))
	// The footer and the end of the "note" record cut off: salvage trims
	// core 1's chunk to its decodable prefix, which still ends in the
	// empty-payload STRING_DEF.
	f.Add(uint32(0), uint8(3), uint8(0), uint16(8+4+1))

	f.Fuzz(func(t *testing.T, pos uint32, op, val uint8, cut uint16) {
		data := append([]byte(nil), buildColFuzzTrace(t)...)
		p := int(pos) % len(data)
		switch op % 4 {
		case 0: // flip
			data[p] ^= val | 1
		case 1: // insert
			data = append(data[:p], append([]byte{val}, data[p:]...)...)
		case 2: // delete
			data = append(data[:p], data[p+1:]...)
		case 3: // truncate from the end
			n := int(cut) % (len(data) + 1)
			data = data[:len(data)-n]
		}
		if int(cut) > 0 && op%4 != 3 {
			n := int(cut) % (len(data) + 1)
			data = data[:len(data)-n]
		}

		d := analyzer.DoctorData(data)
		if d == nil || d.Trace == nil {
			return // nothing recoverable
		}
		tr := d.Trace

		// The load under test frames each chunk and decodes every record
		// once, in the merge, straight into the columns; the reference
		// decodes whole records first and appends them.
		sf, _, err := traceio.Salvage(data)
		if err != nil {
			t.Fatalf("salvage failed on input the doctor recovered: %v", err)
		}
		assertStoresEqual(t, recordShapedStore(sf), tr.Columns())

		evs := tr.Events()
		rt := &analyzer.Trace{Meta: tr.Meta, Strings: tr.Strings, Confidence: tr.Confidence}
		rt.SetEvents(evs)
		if tr.NumEvents() != rt.NumEvents() {
			t.Fatalf("round trip lost events: %d -> %d", tr.NumEvents(), rt.NumEvents())
		}
		for i, n := 0, tr.NumEvents(); i < n; i++ {
			if !reflect.DeepEqual(tr.Event(i), rt.Event(i)) {
				t.Fatalf("event %d differs after round trip:\nwant %+v\ngot  %+v",
					i, tr.Event(i), rt.Event(i))
			}
		}

		// The kernels must run on the round-tripped store without
		// panicking, salvaged input or not.
		analyzer.Profile(rt)
		analyzer.ComputeCriticalPath(rt)
		analyzer.Intervals(rt)
		analyzer.PPEIntervals(rt)
		analyzer.FindGaps(rt, 1)

		if tr.Footprint() <= 0 || rt.Footprint() <= 0 {
			t.Fatalf("footprint not positive: %d / %d", tr.Footprint(), rt.Footprint())
		}
	})
}

// recordShapedStore builds what a lenient load of a salvaged file must
// hold, the way the reference loader (FromFileSerial) builds it: every
// chunk through traceio.DecodeChunk, its records placed on the timeline
// here, one stable sort, then colstore.Builder.Append per record. It
// shares no framing, placement or merge code with the load under test.
// Salvage keeps only chunks whose anchor resolves, so none is dropped.
func recordShapedStore(f *traceio.File) *colstore.Store {
	type row struct {
		rec    event.Record
		global uint64
		run    int32
	}
	var rows []row
	for _, c := range f.Chunks {
		run, anchorTB := int32(-1), uint64(0)
		if c.Core != event.CorePPE {
			run, anchorTB = int32(c.AnchorIdx), f.Meta.Anchors[c.AnchorIdx].Timebase
		}
		recs, _, _ := traceio.DecodeChunk(c) // a damaged chunk keeps what decoded
		for _, r := range recs {
			g := r.Time
			if r.Flags&event.FlagDecrTime != 0 {
				g += anchorTB
			}
			rows = append(rows, row{r, g, run})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].global < rows[j].global })
	b := colstore.NewBuilder(len(rows), 0)
	for i := range rows {
		b.Append(&rows[i].rec, rows[i].global, rows[i].run)
	}
	return b.Done()
}

// assertStoresEqual compares two column stores row by row on every
// column, then the argument arena and the intern table themselves.
func assertStoresEqual(t *testing.T, want, got *colstore.Store) {
	t.Helper()
	if got == nil {
		got = &colstore.Store{}
	}
	if want.Len() != got.Len() {
		t.Fatalf("store rows: record-shaped path %d, loaded %d", want.Len(), got.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if want.ID[i] != got.ID[i] || want.Core[i] != got.Core[i] || want.Flags[i] != got.Flags[i] ||
			want.Time[i] != got.Time[i] || want.Global[i] != got.Global[i] || want.Run[i] != got.Run[i] ||
			want.StrIdx[i] != got.StrIdx[i] || want.Str(i) != got.Str(i) ||
			!slices.Equal(want.EventArgs(i), got.EventArgs(i)) {
			t.Fatalf("row %d differs:\nrecord-shaped %+v (global %d, run %d, strIdx %d)\nloaded        %+v (global %d, run %d, strIdx %d)",
				i, want.Record(i), want.Global[i], want.Run[i], want.StrIdx[i],
				got.Record(i), got.Global[i], got.Run[i], got.StrIdx[i])
		}
	}
	if !slices.Equal(want.ArgOff, got.ArgOff) || !slices.Equal(want.Args, got.Args) {
		t.Fatalf("argument arenas differ:\nrecord-shaped %v %v\nloaded        %v %v", want.ArgOff, want.Args, got.ArgOff, got.Args)
	}
	if !slices.Equal(want.Strs, got.Strs) {
		t.Fatalf("intern tables differ:\nrecord-shaped %q\nloaded        %q", want.Strs, got.Strs)
	}
}
