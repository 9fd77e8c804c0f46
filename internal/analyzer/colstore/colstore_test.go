package colstore

import (
	"reflect"
	"testing"

	"github.com/celltrace/pdt/internal/core/event"
)

func TestBuilderRoundTrip(t *testing.T) {
	recs := []event.Record{
		{ID: event.SPEProgramStart, Core: 0, Flags: event.FlagDecrTime, Time: 10},
		{ID: event.SPEMFCGet, Core: 0, Flags: event.FlagDecrTime, Time: 20,
			Args: []uint64{1, 0x1000, 256, 5}},
		{ID: event.StringDef, Core: event.CorePPE, Flags: event.FlagHasStr, Time: 30,
			Args: []uint64{7}, Str: "hello"},
		{ID: event.SPEProgramEnd, Core: 1, Flags: event.FlagDecrTime, Time: 40},
		{ID: event.StringDef, Core: event.CorePPE, Flags: event.FlagHasStr, Time: 50,
			Args: []uint64{8}, Str: "hello"}, // interned duplicate
	}
	// Row i belongs to run i%2, anchored at anchorTB(i): a decrementer
	// stamp goes in as Global = stamp + anchor tick and must come back out.
	anchorTB := func(i int) uint64 { return 1000 * uint64(1+i%2) }
	global := func(i int) uint64 {
		if recs[i].Flags&event.FlagDecrTime != 0 {
			return recs[i].Time + anchorTB(i)
		}
		return recs[i].Time
	}
	b := NewBuilder(len(recs), 6)
	for i, r := range recs {
		enc, err := r.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		b.AppendEncoded(enc, global(i), int32(i%2))
	}
	if b.Len() != len(recs) {
		t.Fatalf("builder len = %d, want %d", b.Len(), len(recs))
	}
	s := b.Done()
	if s.Len() != len(recs) {
		t.Fatalf("store len = %d, want %d", s.Len(), len(recs))
	}
	for i, want := range recs {
		got := s.Record(i, anchorTB(i))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
		if s.Global[i] != global(i) || s.Run[i] != int32(i%2) {
			t.Fatalf("row %d global/run = %d/%d", i, s.Global[i], s.Run[i])
		}
	}
	if len(s.Strs) != 1 {
		t.Fatalf("interning failed: %d distinct strings, want 1", len(s.Strs))
	}
	if s.EventArgs(0) != nil {
		t.Fatal("zero-arg record must materialize nil Args")
	}
	if s.Bytes() <= 0 {
		t.Fatal("Bytes must be positive for a non-empty store")
	}
	// Footprint must scale with the data actually held: at least the raw
	// column widths, at most a small constant factor over them.
	min := int64(s.Len()) * 24
	if got := s.Bytes(); got < min || got > 8*min {
		t.Fatalf("Bytes = %d, want within [%d, %d]", got, min, 8*min)
	}
}

func TestEmptyStore(t *testing.T) {
	s := NewBuilder(0, 0).Done()
	if s.Len() != 0 {
		t.Fatalf("empty store len = %d", s.Len())
	}
	if s.Bytes() < 0 {
		t.Fatal("negative footprint")
	}
}
