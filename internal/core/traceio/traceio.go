// Package traceio implements the PDT trace file format: a fixed header, an
// XML metadata blob (session parameters, clock-correlation anchors, drop
// accounting), a sequence of record chunks (one per core buffer flush
// region), and a CRC32 footer. One Scanner and one record loop read it for
// Parse and the analyzer's StreamLoader, which tolerate a truncated tail
// (a crashed run's trace decodes up to the damage, flagged Truncated), and
// for Salvage, which recovers the intact chunks of a damaged file.
package traceio

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/xml"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"github.com/celltrace/pdt/internal/core/event"
)

// File format constants.
const (
	Magic       = "PDT1"
	FooterMagic = "PDTE"
	ChunkMagic  = 0xC5
	// Version 2 added a per-chunk CRC32 to the chunk header so damaged
	// files can be salvaged chunk by chunk; version 1 files (no chunk
	// CRC) are still read.
	Version = 2
)

// NoAnchor marks chunks (PPE buffers) whose timestamps are absolute
// timebase ticks and need no decrementer correlation.
const NoAnchor = 0xFFFF

// Header is the fixed-size file prologue.
type Header struct {
	Version     uint16
	NumSPEs     uint8
	TimebaseDiv uint64 // processor cycles per timebase tick
	ClockHz     uint64 // nominal processor frequency (reporting only)
}

// Anchor is one clock-correlation record: at PPE timebase tick Timebase,
// SPE program Program started on SPE with the decrementer loaded to
// Loaded. SPE record times are elapsed decrementer ticks since this point.
type Anchor struct {
	SPE      int    `xml:"spe,attr"`
	Timebase uint64 `xml:"timebase,attr"`
	Loaded   uint32 `xml:"loaded,attr"`
	Program  string `xml:"program,attr"`
}

// Drop accounts records lost on one SPE when its main-memory trace region
// filled.
type Drop struct {
	SPE   int    `xml:"spe,attr"`
	Count uint64 `xml:"count,attr"`
}

// Param is one workload or session parameter recorded for reproducibility.
type Param struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

// Meta is the XML metadata blob.
type Meta struct {
	XMLName  xml.Name `xml:"pdtmeta"`
	Workload string   `xml:"workload,attr"`
	Groups   string   `xml:"groups,attr"` // enabled group names, for reporting
	// SPEEventCost/PPEEventCost record the configured per-record
	// instrumentation cost in cycles, letting the analyzer compensate
	// measurements for tracing overhead.
	SPEEventCost uint64   `xml:"speEventCost,attr"`
	PPEEventCost uint64   `xml:"ppeEventCost,attr"`
	Anchors      []Anchor `xml:"anchor"`
	Drops        []Drop   `xml:"drop"`
	Params       []Param  `xml:"param"`
}

// Chunk is one contiguous run of encoded records from a single core.
type Chunk struct {
	Core      uint8  // SPE index or event.CorePPE
	AnchorIdx uint16 // index into Meta.Anchors, or NoAnchor
	Data      []byte // encoded records
	// CRC is the per-chunk checksum stored in the chunk header (version 2
	// files; zero on version 1 reads). The writer computes it; callers
	// building chunks by hand can leave it zero.
	CRC uint32
}

// ChunkCRC computes the per-chunk checksum stored in version 2 chunk
// headers: CRC32 (IEEE) over the header fields after the magic (core,
// anchor index, data length) and the chunk data, so a corrupted header
// byte is as detectable as corrupted data.
func ChunkCRC(c Chunk) uint32 {
	var h [7]byte
	h[0] = c.Core
	binary.LittleEndian.PutUint16(h[1:3], c.AnchorIdx)
	binary.LittleEndian.PutUint32(h[3:7], uint32(len(c.Data)))
	return crc32.Update(crc32.ChecksumIEEE(h[:]), crc32.IEEETable, c.Data)
}

// Writer emits a trace file.
type Writer struct {
	w      io.Writer
	crc    uint32
	closed bool
	err    error
}

// NewWriter writes the header and returns a Writer.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	tw := &Writer{w: w}
	var buf bytes.Buffer
	buf.WriteString(Magic)
	b := buf.Bytes()
	b = binary.LittleEndian.AppendUint16(b, h.Version)
	b = append(b, h.NumSPEs)
	b = binary.LittleEndian.AppendUint64(b, h.TimebaseDiv)
	b = binary.LittleEndian.AppendUint64(b, h.ClockHz)
	if err := tw.write(b); err != nil {
		return nil, err
	}
	return tw, nil
}

func (w *Writer) write(b []byte) error {
	if w.err != nil {
		return w.err
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, b)
	_, w.err = w.w.Write(b)
	return w.err
}

// WriteMeta writes the metadata blob; call exactly once, before chunks.
func (w *Writer) WriteMeta(m *Meta) error {
	data, err := xml.Marshal(m)
	if err != nil {
		return fmt.Errorf("traceio: marshal metadata: %w", err)
	}
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(data)))
	b = append(b, data...)
	return w.write(b)
}

// WriteChunk writes one record chunk, computing its header CRC from Data.
func (w *Writer) WriteChunk(c Chunk) error {
	b := []byte{ChunkMagic, c.Core}
	b = binary.LittleEndian.AppendUint16(b, c.AnchorIdx)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Data)))
	b = binary.LittleEndian.AppendUint32(b, ChunkCRC(c))
	if err := w.write(b); err != nil {
		return err
	}
	return w.write(c.Data)
}

// Close writes the footer (magic + CRC32 of everything before it).
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	crc := w.crc // CRC covers header..chunks, not the footer itself
	b := append([]byte(FooterMagic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b[4:], crc)
	return w.write(b)
}

// File is a fully parsed trace.
type File struct {
	Header Header
	Meta   Meta
	Chunks []Chunk
	// Truncated marks a file whose tail was cut off (crashed run); the
	// decoded prefix is still valid.
	Truncated bool
}

// ErrBadMagic marks a file that is not a PDT trace at all.
var ErrBadMagic = errors.New("traceio: bad magic (not a PDT trace)")

// ErrCRC marks a structurally complete file whose checksum does not match.
// Parse returns it alongside the fully parsed *File: the structure is
// intact, only the checksum disagrees, so callers may choose to keep the
// data (Salvage and the doctor command do; strict callers treat any
// non-nil error as fatal and discard the file).
var ErrCRC = errors.New("traceio: CRC mismatch")

// ErrCorrupt marks structural damage (bad chunk framing, a record that
// does not frame, unreadable metadata). Errors wrapping it — and ErrCRC /
// ErrBadMagic — identify input that Salvage may still partially recover;
// IsCorrupt tests for all three.
var ErrCorrupt = errors.New("traceio: corrupt trace")

// IsCorrupt reports whether err indicates a damaged trace file that is a
// candidate for Salvage (as opposed to, say, an I/O error).
func IsCorrupt(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrCRC) || errors.Is(err, ErrBadMagic)
}

// headerLen is the fixed file prologue size; chunkHeaderLen depends on the
// format version (version 2 added the 4-byte chunk CRC).
const headerLen = 4 + 2 + 1 + 8 + 8

func chunkHeaderLen(version uint16) int {
	if version >= 2 {
		return 12
	}
	return 8
}

// Read parses a whole trace file.
func Read(r io.Reader) (*File, error) {
	return ReadContext(context.Background(), r, Limits{})
}

// ReadContext parses a whole trace file, refusing inputs larger than
// lim.MaxFileBytes before buffering more than that many bytes.
func ReadContext(ctx context.Context, r io.Reader, lim Limits) (*File, error) {
	if lim.MaxFileBytes > 0 {
		r = io.LimitReader(r, lim.MaxFileBytes+1)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if lim.MaxFileBytes > 0 && int64(len(data)) > lim.MaxFileBytes {
		return nil, limitErr("file size over", int64(len(data)), lim.MaxFileBytes)
	}
	return ParseContext(ctx, data, lim)
}

// Framing element kinds reported by Scanner.Next.
const (
	// ElemNeedMore: the input ends inside the element at its front.
	ElemNeedMore = iota
	// ElemPrefix: the file header and metadata blob, now in
	// Scanner.Header and Scanner.Meta.
	ElemPrefix
	// ElemChunk: a chunk header; its dataLen data bytes follow.
	ElemChunk
	// ElemFooter: the footer, its stored file CRC in Chunk.CRC.
	ElemFooter
	// ElemBadFooter: a footer magic byte that does not start a footer.
	// Readers stop here and call the trace truncated.
	ElemBadFooter
)

// Scanner parses the file framing — prefix, chunk headers, footer — one
// element at a time. It is the only reader of that layout, with three
// drivers: ParseContext walks it over a whole image,
// analyzer.StreamLoader over whatever prefix of the stream has arrived,
// and SalvageContext over a damaged image from any offset it resyncs to
// (past a prefix it parsed leniently itself). So they cannot disagree on
// what the bytes mean. It never touches chunk data and keeps no offset;
// callers own both, and the running file CRC.
type Scanner struct {
	Lim Limits
	// Header is set once the fixed header has been seen (Version is then
	// non-zero) — before Next reports ElemPrefix when the metadata is
	// still incomplete. Meta is set when Next reports ElemPrefix.
	Header Header
	Meta   Meta

	prefixed bool
}

// Next parses the framing element at the front of buf, which starts at
// absolute offset off of the trace (used in error text only). n is the
// element's length; for ElemChunk, c carries the header fields and the
// chunk's dataLen data bytes follow the n header bytes. Declared lengths
// over Lim fail with ErrLimitExceeded as soon as the length field is
// visible, before anything that long is buffered or sliced.
func (s *Scanner) Next(buf []byte, off int64) (kind int, c Chunk, dataLen, n int, err error) {
	if !s.prefixed {
		if len(buf) < headerLen {
			return ElemNeedMore, c, 0, 0, nil
		}
		f, size, err := parseHeaderMeta(buf, s.Lim)
		if err != nil {
			return 0, c, 0, 0, err
		}
		s.Header = f.Header
		if f.Truncated {
			return ElemNeedMore, c, 0, 0, nil
		}
		s.Meta, s.prefixed = f.Meta, true
		return ElemPrefix, c, 0, size, nil
	}
	if len(buf) == 0 {
		return ElemNeedMore, c, 0, 0, nil
	}
	if buf[0] == FooterMagic[0] {
		if len(buf) < 8 {
			return ElemNeedMore, c, 0, 0, nil
		}
		if string(buf[:4]) != FooterMagic {
			return ElemBadFooter, c, 0, 0, nil
		}
		c.CRC = binary.LittleEndian.Uint32(buf[4:8])
		return ElemFooter, c, 0, 8, nil
	}
	if buf[0] != ChunkMagic {
		return 0, c, 0, 0, fmt.Errorf("%w: bad chunk magic %#x at offset %d", ErrCorrupt, buf[0], off)
	}
	n = chunkHeaderLen(s.Header.Version)
	if len(buf) < n {
		return ElemNeedMore, c, 0, 0, nil
	}
	c.Core = buf[1]
	c.AnchorIdx = binary.LittleEndian.Uint16(buf[2:4])
	dataLen = int(binary.LittleEndian.Uint32(buf[4:8]))
	if s.Lim.MaxChunkBytes > 0 && dataLen > s.Lim.MaxChunkBytes {
		return 0, c, 0, 0, limitErr(fmt.Sprintf("chunk at offset %d declares", off), int64(dataLen), int64(s.Lim.MaxChunkBytes))
	}
	if n == 12 {
		c.CRC = binary.LittleEndian.Uint32(buf[8:12])
	}
	return ElemChunk, c, dataLen, n, nil
}

// Parse parses a trace from memory with no deadline and no resource
// limits (the historical trusted-operator contract). On a footer CRC
// mismatch it returns the structurally complete *File alongside ErrCRC,
// so callers that can tolerate unverified data need not discard it; every
// other error returns a nil file.
func Parse(data []byte) (*File, error) {
	return ParseContext(context.Background(), data, Limits{})
}

// ParseContext parses a trace from memory, honoring cancellation and the
// admission-control limits: a metadata blob or chunk whose header
// declares a length over the corresponding limit is rejected with
// ErrLimitExceeded before any length-proportional work happens. Declared
// lengths are never trusted for allocation — chunk data is sliced from
// the input, so the per-chunk footprint is capped by
// min(declared, remaining input bytes) even with no limits set. Bytes
// after the footer are ignored.
func ParseContext(ctx context.Context, data []byte, lim Limits) (*File, error) {
	if lim.MaxFileBytes > 0 && int64(len(data)) > lim.MaxFileBytes {
		return nil, limitErr("file size", int64(len(data)), lim.MaxFileBytes)
	}
	s := Scanner{Lim: lim}
	f := &File{}
	for off, iter := 0, 0; ; iter++ {
		kind, c, dataLen, n, err := s.Next(data[off:], int64(off))
		if err != nil {
			return nil, err
		}
		switch kind {
		case ElemPrefix:
			f.Header, f.Meta = s.Header, s.Meta
		case ElemChunk:
			if dataLen > len(data)-off-n {
				// Final chunk cut off mid-data (crashed run): dropped.
				f.Truncated = true
				return f, nil
			}
			c.Data = data[off+n : off+n+dataLen]
			f.Chunks = append(f.Chunks, c)
			n += dataLen
		case ElemFooter:
			if got := crc32.ChecksumIEEE(data[:off]); got != c.CRC {
				return f, fmt.Errorf("%w: got %#x want %#x", ErrCRC, got, c.CRC)
			}
			return f, nil
		default: // ElemNeedMore, ElemBadFooter: no footer where one is due
			if s.Header.Version == 0 {
				return nil, ErrBadMagic // too short to hold a header at all
			}
			f.Header, f.Truncated = s.Header, true
			return f, nil
		}
		off += n
		if err := checkEvery(ctx, iter); err != nil {
			return nil, err
		}
	}
}

// parseHeaderMeta parses the fixed header and metadata blob, returning the
// offset of the first chunk. A truncated prefix sets f.Truncated with no
// error, mirroring Parse's tolerance for crashed writes. A metadata blob
// declaring more than lim.MaxMetaBytes is rejected before the XML decoder
// sees it, whether or not the blob itself is present.
func parseHeaderMeta(data []byte, lim Limits) (*File, int, error) {
	if len(data) < headerLen || string(data[:4]) != Magic {
		return nil, 0, ErrBadMagic
	}
	f := &File{}
	f.Header.Version = binary.LittleEndian.Uint16(data[4:6])
	if f.Header.Version == 0 || f.Header.Version > Version {
		return nil, 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, f.Header.Version)
	}
	f.Header.NumSPEs = data[6]
	f.Header.TimebaseDiv = binary.LittleEndian.Uint64(data[7:15])
	f.Header.ClockHz = binary.LittleEndian.Uint64(data[15:23])
	off := headerLen

	if off+4 > len(data) {
		f.Truncated = true
		return f, off, nil
	}
	mlen := int(binary.LittleEndian.Uint32(data[off : off+4]))
	if lim.MaxMetaBytes > 0 && mlen > lim.MaxMetaBytes {
		return nil, 0, limitErr("metadata length", int64(mlen), int64(lim.MaxMetaBytes))
	}
	off += 4
	if off+mlen > len(data) {
		f.Truncated = true
		return f, off, nil
	}
	if err := xml.Unmarshal(data[off:off+mlen], &f.Meta); err != nil {
		return nil, 0, fmt.Errorf("%w: metadata: %v", ErrCorrupt, err)
	}
	off += mlen
	return f, off, nil
}

// DecodeChunk decodes every record in one chunk: the record loop frames
// it, then each framed record decodes into one pre-sized slice, all of
// their arguments into one shared arena — sized by event.ScanChunk, so it
// never reallocates under the records whose Args alias it. A truncated
// final record ends decoding cleanly with truncated=true; structural
// corruption returns an error alongside the records decoded so far. The
// analyzer's loaders skip the record-shaped step and decode each framed
// record straight into the column store; this is the record view tests
// and tools compare against.
func DecodeChunk(c Chunk) (recs []event.Record, truncated bool, err error) {
	offs, n, err := FrameRecords(context.Background(), c.Core, c.Data, nil, 0, Limits{})
	if len(offs) > 0 {
		_, words := event.ScanChunk(c.Data[:n])
		recs = make([]event.Record, len(offs))
		arena := make([]uint64, 0, words)
		for i, off := range offs {
			_, arena, _ = event.DecodeNext(&recs[i], c.Data[off:], arena)
		}
	}
	return recs, err == nil && n < len(c.Data), err
}

// FrameRecords is the record loop: it frames every complete record at
// the front of data — a whole chunk, or the piece of one that has
// arrived — checking each one with event.Frame, appends each record's
// offset in data to offs, and returns the bytes consumed. Nothing is
// decoded; the caller decodes each framed record once, where it is
// finally kept. Without an error, data[n:] is a trailing partial record:
// truncation at the end of a chunk, the start of the next piece before
// it. before is the number of records earlier pieces of the same chunk
// produced, so the per-chunk lim.MaxRecords cap (0 = unlimited) and the
// ctx poll count the chunk, not the piece. Structural corruption and the
// cap return an error alongside the offsets framed so far, the record
// that trips the cap included; core only labels those errors.
//
// When a framed record finds offs full, the rest of data is pre-scanned
// for its record count (an upper bound, see event.ScanChunk), so offs
// grows at most once per call, sized from bytes actually present — never
// a header-declared length — and a call that frames nothing scans nothing.
func FrameRecords(ctx context.Context, core uint8, data []byte, offs []uint32, before int, lim Limits) (out []uint32, n int, err error) {
	count := before
	for n < len(data) {
		if err := checkEvery(ctx, count); err != nil {
			return offs, n, err
		}
		if data[n] == 0 {
			// DMA-alignment padding between buffer flushes: skip the
			// whole zero run at once.
			for n++; n < len(data) && data[n] == 0; n++ {
			}
			continue
		}
		size, ferr := event.Frame(data[n:])
		if ferr != nil {
			if errors.Is(ferr, event.ErrShortRecord) {
				return offs, n, nil
			}
			return offs, n, fmt.Errorf("%w: core %d: %w", ErrCorrupt, core, ferr)
		}
		if len(offs) == cap(offs) {
			est, _ := event.ScanChunk(data[n:])
			if room := lim.MaxRecords + 1 - count; lim.MaxRecords > 0 && est > room {
				est = room // up to and including the record that trips the cap
			}
			offs = slices.Grow(offs, est)
		}
		offs = append(offs, uint32(n))
		n += size
		if count++; lim.MaxRecords > 0 && count > lim.MaxRecords {
			return offs, n, limitErr(fmt.Sprintf("core %d record count", core), int64(count), int64(lim.MaxRecords))
		}
	}
	return offs, n, nil
}
