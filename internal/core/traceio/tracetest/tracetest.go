// Package tracetest builds real PDT trace images for tests. Rows of
// records already placed on the global timeline go in; the bytes a tracer
// would have written come out, and a test loads them through the same
// framing, placement and merge every trace file goes through.
package tracetest

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// Row is one record of the merged stream. Encode keeps Rec's ID, Core,
// Args and Str (FlagHasStr is set for a non-empty Str) and derives its
// Time and FlagDecrTime from Global. Run is the SPE program run the
// record belongs to, -1 for a PPE record.
type Row struct {
	Rec    event.Record
	Global uint64
	Run    int
}

// pending is the chunk one (core, run) is filling.
type pending struct {
	traceio.Chunk
	last uint64 // Global of the latest record
	n    int
}

// image writes a trace file holding chunks.
func image(tb testing.TB, h traceio.Header, meta *traceio.Meta, chunks []traceio.Chunk) []byte {
	var out bytes.Buffer
	w, _ := traceio.NewWriter(&out, h) // a bytes.Buffer takes every write
	if err := w.WriteMeta(meta); err != nil {
		tb.Fatal(err)
	}
	for _, c := range chunks {
		w.WriteChunk(c)
	}
	w.Close()
	return out.Bytes()
}

// Encode writes rows, in stream order, as a trace image whose timebase
// ticks once per cycle.
//
// Every run gets one anchor on its core at its earliest Global, and its
// records carry decrementer time counted from there, so the loader adds
// the anchor back; PPE records carry Global itself. meta is written as
// given but for its anchors: one per run, Program and Loaded kept.
//
// Records go into per-(core, run) chunks — every PPE thread's into the
// PPE buffer's, as the tracer writes them — of at most per records (no
// limit when per <= 0), written to the file when full, or when a record
// of another chunk arrives at the same Global — so a load returns rows
// of equal Global in the order given — and otherwise at the end, in the
// order they were begun.
func Encode(tb testing.TB, meta traceio.Meta, rows []Row, per int) []byte {
	tb.Helper()
	meta.Anchors = slices.Clone(meta.Anchors)
	placed := map[int]bool{}
	for _, r := range rows {
		if r.Run < 0 {
			continue
		}
		for r.Run >= len(meta.Anchors) {
			meta.Anchors = append(meta.Anchors, traceio.Anchor{})
		}
		if a := &meta.Anchors[r.Run]; !placed[r.Run] || r.Global < a.Timebase {
			a.SPE, a.Timebase, placed[r.Run] = int(r.Rec.Core), r.Global, true
		}
	}
	var chunks []traceio.Chunk
	var open []*pending // begun and not yet written, in the order begun
	for i, r := range rows {
		rec, core, anchor := r.Rec, uint8(event.CorePPE), uint16(traceio.NoAnchor)
		rec.Time, rec.Flags = r.Global, rec.Flags&^event.FlagDecrTime
		if rec.Str != "" {
			rec.Flags |= event.FlagHasStr
		}
		switch spe := rec.Core < event.CorePPEBase; {
		case spe && r.Run >= 0 && meta.Anchors[r.Run].SPE == int(rec.Core):
			rec.Time -= meta.Anchors[r.Run].Timebase
			rec.Flags |= event.FlagDecrTime
			core, anchor = rec.Core, uint16(r.Run)
		case spe || r.Run != -1:
			tb.Fatalf("tracetest: row %d: core %d cannot be in run %d", i, rec.Core, r.Run)
		}
		var p *pending
		open = slices.DeleteFunc(open, func(o *pending) bool {
			if o.Core == core && o.AnchorIdx == anchor {
				p = o
			} else if o.last == r.Global {
				chunks = append(chunks, o.Chunk)
				return true
			}
			return false
		})
		if p == nil {
			p = &pending{Chunk: traceio.Chunk{Core: core, AnchorIdx: anchor}}
			open = append(open, p)
		}
		from := len(p.Data)
		var err error
		if p.Data, err = rec.AppendTo(p.Data); err == nil {
			_, err = event.Frame(p.Data[from:])
		}
		if err != nil {
			tb.Fatalf("tracetest: row %d (%v): %v", i, rec.ID, err)
		}
		if p.last, p.n = r.Global, p.n+1; p.n == per {
			chunks = append(chunks, p.Chunk)
			open = slices.DeleteFunc(open, func(o *pending) bool { return o == p })
		}
	}
	for _, p := range open {
		chunks = append(chunks, p.Chunk)
	}
	return image(tb, traceio.Header{Version: traceio.Version, NumSPEs: 8, TimebaseDiv: 1}, &meta, chunks)
}

// Args returns vals fitted to id's arity in the event table, cut short or
// padded with zeros: framing rejects a record of any other length.
func Args(id event.ID, vals ...uint64) []uint64 {
	args := make([]uint64, len(event.MustLookup(id).Args))
	copy(args, vals)
	return args
}

// Rechunk returns the complete trace image img with every chunk split in
// place, in file order, into pieces of at most per records: the records
// a tracer with smaller buffers would have flushed. Padding between
// records stays with the piece it follows.
func Rechunk(tb testing.TB, img []byte, per int) []byte {
	tb.Helper()
	f, err := traceio.Parse(img)
	if err != nil {
		tb.Fatal(err)
	}
	var chunks []traceio.Chunk
	for _, c := range f.Chunks {
		offs, _, err := traceio.FrameRecords(context.Background(), c.Core, c.Data, nil, 0, traceio.Limits{})
		if err != nil {
			tb.Fatal(err)
		}
		start := uint32(0)
		for k := per; k < len(offs); k += per {
			piece := c
			piece.Data, start = c.Data[start:offs[k]], offs[k]
			chunks = append(chunks, piece)
		}
		c.Data = c.Data[start:]
		chunks = append(chunks, c)
	}
	return image(tb, f.Header, &f.Meta, chunks)
}

// V1 re-encodes the version-2 trace image img as version 1, whose chunk
// headers are 8 bytes and carry no CRC: the same header fields, metadata
// and chunk data, and a footer (over the new bytes) only if img has one.
// A chunk cut off by the end of img stays cut off; a cut header is left out.
func V1(tb testing.TB, img []byte) []byte {
	tb.Helper()
	var s traceio.Scanner
	var out []byte
	for off := 0; ; {
		kind, _, dataLen, n, err := s.Next(img[off:], int64(off))
		switch {
		case err != nil || kind == traceio.ElemPrefix && s.Header.Version != 2:
			tb.Fatalf("tracetest: not a version 2 image (%v)", err)
		case kind == traceio.ElemPrefix:
			out = append(binary.LittleEndian.AppendUint16(append(out, img[:4]...), 1), img[6:n]...)
		case kind == traceio.ElemChunk: // magic, core, anchor, length: the version 1 header
			end := min(off+n+dataLen, len(img))
			out = append(append(out, img[off:off+8]...), img[off+n:end]...)
			n = end - off
		case kind == traceio.ElemFooter:
			crc := crc32.ChecksumIEEE(out)
			return binary.LittleEndian.AppendUint32(append(out, traceio.FooterMagic...), crc)
		default:
			return out
		}
		off += n
	}
}
