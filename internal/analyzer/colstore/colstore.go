// Package colstore holds the analyzer's event store: one struct-of-arrays
// table, a parallel slice per field, so a scan touches only the columns
// it reads — Profile walks 2-byte IDs and 8-byte timestamps, the
// critical-path dependency scans the ID column alone — and the store
// costs ~32 bytes per event plus argument words.
//
// Arguments are packed into one shared arena (Args) addressed by a
// prefix-sum offset column (ArgOff), and string payloads are interned
// into a table (Strs) addressed by StrIdx, so loading a trace performs a
// constant number of allocations instead of one per record.
package colstore

import (
	"encoding/binary"

	"github.com/celltrace/pdt/internal/core/event"
)

// Store is a struct-of-arrays event table. All column slices have the
// same length (the event count) except ArgOff, which has one extra
// trailing entry so event i's arguments are Args[ArgOff[i]:ArgOff[i+1]].
// Row order is the analyzer's merged order (ascending Global, stable by
// input order), so an event's sequence number is simply its row index.
type Store struct {
	ID     []event.ID
	Core   []uint8
	Flags  []uint8
	Time   []uint64 // raw record timestamp (decrementer or timebase)
	Global []uint64 // correlated global timebase ticks
	Run    []int32  // SPE run index, or -1 for PPE events
	ArgOff []uint32 // len()+1 entries; prefix sums into Args
	Args   []uint64 // shared argument arena
	StrIdx []int32  // index into Strs, or -1 when the record has no string
	Strs   []string // interned string payloads
}

// Len returns the number of events in the store.
func (s *Store) Len() int { return len(s.ID) }

// EventArgs returns event i's argument words as a view into the shared
// arena, or nil when the event has none. Callers must not mutate it.
func (s *Store) EventArgs(i int) []uint64 {
	lo, hi := s.ArgOff[i], s.ArgOff[i+1]
	if lo == hi {
		return nil
	}
	return s.Args[lo:hi:hi]
}

// Str returns event i's string payload ("" when it has none).
func (s *Store) Str(i int) string {
	if idx := s.StrIdx[i]; idx >= 0 {
		return s.Strs[idx]
	}
	return ""
}

// Record materializes event i as a decoded wire record. The Args slice
// aliases the shared arena (nil for zero-argument events, matching
// event.Decode) and must not be mutated.
func (s *Store) Record(i int) event.Record {
	return event.Record{
		ID:    s.ID[i],
		Core:  s.Core[i],
		Flags: s.Flags[i],
		Time:  s.Time[i],
		Args:  s.EventArgs(i),
		Str:   s.Str(i),
	}
}

// Bytes returns the exact heap footprint of the column data: the sum of
// every column's backing array plus string headers and bytes. Slice and
// map headers of the Store struct itself are not counted; they are O(1).
func (s *Store) Bytes() int64 {
	n := int64(cap(s.ID))*2 + int64(cap(s.Core)) + int64(cap(s.Flags)) +
		int64(cap(s.Time))*8 + int64(cap(s.Global))*8 + int64(cap(s.Run))*4 +
		int64(cap(s.ArgOff))*4 + int64(cap(s.Args))*8 + int64(cap(s.StrIdx))*4
	n += int64(cap(s.Strs)) * 16 // string headers
	for _, str := range s.Strs {
		n += int64(len(str))
	}
	return n
}

// Builder appends rows to a Store, interning strings as it goes. Use
// NewBuilder with the final event count when it is known up front so the
// columns are allocated exactly once.
type Builder struct {
	s      Store
	intern map[string]int32
}

// NewBuilder returns a Builder with capacity for n events and argWords
// total argument words. Either may be 0 when unknown; the columns then
// grow geometrically.
func NewBuilder(n, argWords int) *Builder {
	b := &Builder{}
	b.Reset(n, argWords)
	return b
}

// Reset empties the builder for another store of n events and argWords
// argument words, reusing every column array already large enough and
// starting a fresh intern table. A store an earlier Done returned shares
// those arrays, so it must be out of use by now.
func (b *Builder) Reset(n, argWords int) {
	s := &b.s
	s.ID = fit(s.ID, n)
	s.Core = fit(s.Core, n)
	s.Flags = fit(s.Flags, n)
	s.Time = fit(s.Time, n)
	s.Global = fit(s.Global, n)
	s.Run = fit(s.Run, n)
	s.ArgOff = append(fit(s.ArgOff, n+1), 0)
	s.Args = fit(s.Args, argWords)
	s.StrIdx = fit(s.StrIdx, n)
	clear(s.Strs)
	s.Strs = s.Strs[:0]
	b.intern = make(map[string]int32)
}

// fit returns s emptied with room for n elements: its own array when that
// is large enough, else a new one of exactly n.
func fit[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:0]
	}
	return make([]T, 0, n)
}

// AppendEncoded adds one event row decoded straight from the encoded
// record at the front of rec (docs/FORMAT.md, "Records"), plus its
// correlated global time and run assignment. It is the only way a row
// enters a store. rec must start with a record event.Frame accepted:
// AppendEncoded checks nothing again. The argument words are
// copied into the shared arena and the string payload is interned by
// value, so the store keeps no reference into rec.
func (b *Builder) AppendEncoded(rec []byte, global uint64, run int32) {
	s := &b.s
	rec = rec[:rec[0]]
	flags := rec[4]
	s.ID = append(s.ID, event.ID(binary.LittleEndian.Uint16(rec[1:3])))
	s.Core = append(s.Core, rec[3])
	s.Flags = append(s.Flags, flags)
	s.Time = append(s.Time, binary.LittleEndian.Uint64(rec[5:13]))
	s.Global = append(s.Global, global)
	s.Run = append(s.Run, run)
	off := 14 // the fixed header: size, ID, core, flags, time, nargs
	for end := off + 8*int(rec[13]); off < end; off += 8 {
		s.Args = append(s.Args, binary.LittleEndian.Uint64(rec[off:off+8]))
	}
	s.ArgOff = append(s.ArgOff, uint32(len(s.Args)))
	if flags&event.FlagHasStr == 0 {
		s.StrIdx = append(s.StrIdx, -1)
		return
	}
	str := rec[off+2:] // past the u16 length: Frame checked it ends the record
	idx, ok := b.intern[string(str)]
	if !ok {
		idx = int32(len(s.Strs))
		s.Strs = append(s.Strs, string(str))
		b.intern[s.Strs[idx]] = idx
	}
	s.StrIdx = append(s.StrIdx, idx)
}

// Len returns the number of rows appended so far.
func (b *Builder) Len() int { return len(b.s.ID) }

// Done returns the built store. The Builder must not be used afterwards
// except through Reset. Dropping the intern table matters: the store
// lives inside the Builder, so whoever keeps the store keeps the table.
func (b *Builder) Done() *Store {
	b.intern = nil
	return &b.s
}
