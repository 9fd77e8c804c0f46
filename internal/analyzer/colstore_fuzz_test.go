package analyzer_test

// FuzzColumnarRoundTrip drives mutated trace images through the salvage
// loader and the columnar store: the store salvage loads must equal,
// column for column, the one the record-shaped path builds from the same
// salvaged chunks; the analysis kernels must run on it without
// panicking; and the footprint must stay positive.

import (
	"bytes"
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
		want, wantTime := recordShapedStore(sf)
		analyzer.AssertStoresEqual(t, want, wantTime, tr)

		// The kernels must run on the salvaged store without panicking.
		analyzer.Summarize(tr)
		analyzer.Profile(tr)
		analyzer.ComputeCriticalPath(tr)
		analyzer.Intervals(tr)
		analyzer.PPEIntervals(tr)
		analyzer.FindGaps(tr, 1)

		if tr.Footprint() <= 0 {
			t.Fatalf("footprint not positive: %d", tr.Footprint())
		}
	})
}

// recordShapedStore builds what the load of a salvaged file must hold,
// the way the reference loader (FromFileSerial) builds it: every chunk
// through traceio.DecodeChunk, its records placed on the timeline here,
// one stable sort, then analyzer.SerialStore. It shares no framing,
// placement, merge or column writer with the load under test. Salvage
// keeps only chunks that frame whole and whose anchor resolves, so none
// is cut short or dropped. Every row's raw stamp comes back beside it.
func recordShapedStore(f *traceio.File) (*colstore.Store, []uint64) {
	var rows []analyzer.SerialRow
	for _, c := range f.Chunks {
		run, anchorTB := int32(-1), uint64(0)
		if c.Core != event.CorePPE {
			run, anchorTB = int32(c.AnchorIdx), f.Meta.Anchors[c.AnchorIdx].Timebase
		}
		recs, _, _ := traceio.DecodeChunk(c)
		for _, r := range recs {
			g := r.Time
			if r.Flags&event.FlagDecrTime != 0 {
				g += anchorTB
			}
			rows = append(rows, analyzer.SerialRow{Rec: r, Global: g, Run: run})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Global < rows[j].Global })
	return analyzer.SerialStore(rows)
}
