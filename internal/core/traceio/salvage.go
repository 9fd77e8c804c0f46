package traceio

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/celltrace/pdt/internal/core/event"
)

// CoreSalvage accounts salvage results for one core's chunks.
type CoreSalvage struct {
	ChunksRecovered  int // verified: frames whole and, in version 2, its CRC matches
	ChunksDamaged    int // unverified, so trimmed to the prefix that frames; or dropped
	ChunksDropped    int // identified but unusable (no surviving anchor, not main PPE)
	RecordsRecovered int // records decodable from the kept chunks
	BytesRecovered   int // chunk data bytes kept
	BytesDamaged     int // chunk data bytes identified but discarded
}

// SalvageReport describes what Salvage recovered and what it gave up on.
// Byte accounting is exact and disjoint:
//
//	BytesStructural + BytesRecovered + BytesDamaged + BytesSkipped == BytesTotal
type SalvageReport struct {
	BytesTotal      int // input length
	BytesStructural int // header, metadata, chunk headers, footer
	BytesRecovered  int // chunk data kept (sum over cores)
	BytesDamaged    int // chunk data identified but discarded
	BytesSkipped    int // unidentifiable bytes passed over while resyncing

	HeaderOK bool // fixed header parsed
	MetaOK   bool // metadata blob parsed
	FooterOK bool // footer present with matching file CRC

	ChunksRecovered  int
	ChunksDamaged    int
	ChunksDropped    int
	RecordsRecovered int
	Resyncs          int // times the scanner had to hunt for the next chunk magic

	PerCore map[uint8]*CoreSalvage
	Notes   []string // human-readable findings, in file order
}

// Clean reports whether the file needed no repair at all.
func (r *SalvageReport) Clean() bool {
	return r.HeaderOK && r.MetaOK && r.FooterOK &&
		r.ChunksDamaged == 0 && r.ChunksDropped == 0 &&
		r.BytesSkipped == 0 && r.BytesDamaged == 0
}

func (r *SalvageReport) core(c uint8) *CoreSalvage {
	if r.PerCore == nil {
		r.PerCore = map[uint8]*CoreSalvage{}
	}
	cs := r.PerCore[c]
	if cs == nil {
		cs = &CoreSalvage{}
		r.PerCore[c] = cs
	}
	return cs
}

// sumCores sets the report's chunk, record and data-byte totals from the
// per-core tallies, the one place they are counted.
func (r *SalvageReport) sumCores() {
	for _, cs := range r.PerCore {
		r.ChunksRecovered += cs.ChunksRecovered
		r.ChunksDamaged += cs.ChunksDamaged
		r.ChunksDropped += cs.ChunksDropped
		r.RecordsRecovered += cs.RecordsRecovered
		r.BytesRecovered += cs.BytesRecovered
		r.BytesDamaged += cs.BytesDamaged
	}
}

func (r *SalvageReport) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// ErrUnsalvageable is returned by Salvage when nothing usable survives:
// no header, no metadata, and no decodable chunk.
var ErrUnsalvageable = errors.New("traceio: nothing recoverable")

// maxPlausibleSPE bounds the SPE index a chunk header may carry (Cell
// machines top out at 16 SPEs; the resync scanner uses this to reject
// false chunk magics).
const maxPlausibleSPE = 16

// Salvage recovers as much of a damaged trace as possible. It parses the
// header and metadata leniently, reads chunk headers and the footer with
// Scanner, resynchronizes on chunk magic bytes past corrupted or inserted
// regions, and tolerates a missing footer or file-CRC mismatch. A chunk
// is verified when all of it frames (FrameRecords) and, in version 2, its
// header CRC matches too; any other chunk keeps only the prefix that
// frames.
//
// The returned File contains only usable chunks: every chunk's Data
// frames whole, and every chunk but the main PPE's has an AnchorIdx that
// resolves in the (possibly lost) metadata or, in a live-streamed trace,
// names a LIVE_ANCHOR record of an earlier kept PPE chunk — so the
// analyzer's strict load takes it as it is. The report is always non-nil.
// The error is non-nil only when nothing at all was recoverable.
//
// For a single-point corruption (one flipped, inserted, or deleted byte
// region) every chunk before the damage is recovered verbatim, and intact
// chunks after it are recovered by resync.
func Salvage(data []byte) (*File, *SalvageReport, error) {
	return SalvageContext(context.Background(), data)
}

// SalvageContext is Salvage under cancellation: the scanner polls ctx
// between chunks and while resynchronizing, so a deadline or cancel stops
// a salvage of arbitrarily damaged input promptly. On cancellation the
// file is dropped and ctx.Err() returned; the report still describes the
// prefix scanned so far (its byte accounting is exact only for completed
// runs).
func SalvageContext(ctx context.Context, data []byte) (*File, *SalvageReport, error) {
	rep := &SalvageReport{BytesTotal: len(data)}
	defer rep.sumCores()
	f := &File{}
	off := 0

	hf, hoff, err := parseHeaderMeta(data, Limits{})
	switch {
	case err == nil && !hf.Truncated:
		f.Header = hf.Header
		f.Meta = hf.Meta
		rep.HeaderOK = true
		rep.MetaOK = true
		rep.BytesStructural += hoff
		off = hoff
	case err == nil:
		// Header parsed but the metadata blob ran off the end (or its
		// length field is damaged); rescan for chunks instead.
		f.Header = hf.Header
		rep.HeaderOK = true
		rep.BytesStructural += headerLen
		off = resync(data, headerLen, rep)
		rep.note("metadata unreadable; scanned forward to offset %d for chunks", off)
	case errors.Is(err, ErrBadMagic):
		// No usable header: assume the current version's layout and hunt
		// for chunks.
		f.Header = Header{Version: Version, NumSPEs: maxPlausibleSPE}
		rep.note("file header unusable (%v); assuming version %d layout", err, Version)
		off = resync(data, 0, rep)
	default:
		// Magic matched but the version or metadata is garbage: keep the
		// raw header fields and scan for chunks under the current layout.
		f.Header.Version = Version
		f.Header.NumSPEs = data[6]
		f.Header.TimebaseDiv = binary.LittleEndian.Uint64(data[7:15])
		f.Header.ClockHz = binary.LittleEndian.Uint64(data[15:23])
		rep.BytesStructural += headerLen
		rep.note("header or metadata damaged (%v); scanning for chunks", err)
		off = resync(data, headerLen, rep)
	}

	// Scanner reads every chunk header and the footer; what to believe of
	// them is decided here. synced: the previous structure parsed
	// cleanly, so a plausible chunk header at off is trusted even if its
	// payload is damaged. After a resync the next candidate must
	// additionally prove itself (a verified chunk, or at least one record
	// that frames).
	sv := salvager{data: data, f: f, rep: rep, synced: rep.MetaOK,
		scan: Scanner{Header: f.Header, prefixed: true}}
	for iter := 0; off < len(data); iter++ {
		if err := checkEvery(ctx, iter); err != nil {
			return nil, rep, err
		}
		kind, c, clen, n, err := sv.scan.Next(data[off:], int64(off))
		if err == nil && kind == ElemFooter {
			if crc32.ChecksumIEEE(data[:off]) == c.CRC {
				rep.FooterOK = true
			} else {
				rep.note("footer CRC mismatch at offset %d", off)
			}
			rep.BytesStructural += n
			off += n
			if off < len(data) {
				rep.note("%d trailing bytes after footer ignored", len(data)-off)
				rep.BytesSkipped += len(data) - off
			}
			break
		}
		used := 0
		if err == nil && kind == ElemChunk {
			used = sv.chunk(off, c, clen, n)
		}
		if used == 0 {
			// Not a chunk here: skip this byte and scan for the next
			// candidate boundary.
			rep.BytesSkipped++
			off = resync(data, off+1, rep)
			sv.synced = false
			continue
		}
		off += used
	}
	f.Truncated = !rep.FooterOK

	if !rep.HeaderOK && !rep.MetaOK && len(f.Chunks) == 0 {
		return nil, rep, fmt.Errorf("%w (%d bytes scanned)", ErrUnsalvageable, len(data))
	}
	return f, rep, nil
}

// isFooterAt reports whether a complete footer starts at off.
func isFooterAt(data []byte, off int) bool {
	return len(data)-off >= 8 && string(data[off:off+4]) == FooterMagic
}

// boundaryAt reports whether off is a believable next-structure position:
// end of input, a footer, or another chunk magic.
func boundaryAt(data []byte, off int) bool {
	return off == len(data) || isFooterAt(data, off) ||
		(off < len(data) && data[off] == ChunkMagic)
}

// salvager is one salvage pass over data: the file it is filling, the
// report, and what the scan may trust at its current position.
type salvager struct {
	data   []byte
	f      *File
	rep    *SalvageReport
	scan   Scanner
	synced bool
	live   int      // LIVE_ANCHOR records in the main-PPE chunks kept so far
	offs   []uint32 // FrameRecords scratch, reused across chunks
}

// chunk recovers the chunk whose header Scanner read at off: fields c,
// clen declared data bytes, n header bytes. It keeps the chunk when
// usable, accounts every byte it consumes, and returns their count —
// zero when this is not a chunk after all.
func (sv *salvager) chunk(off int, c Chunk, clen, n int) int {
	rep := sv.rep
	// A live stream's anchors arrive in-band, and the load appends them
	// to the metadata's table in file order.
	anchors := len(sv.f.Meta.Anchors) + sv.live
	if (c.Core >= maxPlausibleSPE && c.Core < event.CorePPEBase) ||
		(c.AnchorIdx != NoAnchor && rep.MetaOK && int(c.AnchorIdx) >= anchors) {
		return 0 // a core or anchor no trace holds: a false chunk magic
	}
	body := off + n
	overEOF := body+clen > len(sv.data)
	c.Data = sv.data[body:min(body+clen, len(sv.data))]
	offs, framed, err := FrameRecords(context.Background(), c.Core, c.Data, sv.offs[:0], 0, Limits{})
	sv.offs = offs
	// Verified: all of the chunk is present and frames, and in version 2
	// its CRC matches too. Every other chunk keeps only the prefix that
	// frames.
	verified := !overEOF && err == nil && framed == len(c.Data) &&
		(sv.f.Header.Version < 2 || ChunkCRC(c) == c.CRC)
	if !sv.synced && len(offs) == 0 && !(verified && clen > 0) {
		// A resync candidate must prove itself: a non-empty verified chunk
		// or at least one record that frames. (An empty chunk's CRC
		// matching proves nothing — the checksum of zero bytes is always
		// zero.)
		return 0
	}

	// Decide how far to trust the header's length. A verified chunk
	// consumes exactly its claimed extent. A damaged one consumes its
	// claimed extent only when that lands on a believable boundary
	// (otherwise the length field itself is suspect, so give the scanner
	// the tail back rather than swallowing later chunks).
	sv.synced = verified || !overEOF && boundaryAt(sv.data, body+clen)
	used := n + framed
	if sv.synced {
		used = n + clen
	}
	rep.BytesStructural += n
	if !verified && overEOF {
		rep.note("core %d: chunk at offset %d truncated at EOF (%d of %d bytes decodable)",
			c.Core, off, framed, len(c.Data))
	} else if !verified {
		rep.note("core %d: chunk at offset %d damaged (%d of %d bytes decodable, %d records)",
			c.Core, off, framed, clen, len(offs))
	}

	cs := rep.core(c.Core)
	// A chunk whose anchor did not survive cannot be placed on the global
	// timeline: identified, perhaps intact, but unusable, so it is
	// accounted and kept out of the file. Only the main PPE's chunks carry
	// absolute time and need none.
	if c.Core != event.CorePPE && (c.AnchorIdx == NoAnchor || int(c.AnchorIdx) >= anchors) {
		cs.ChunksDamaged++
		cs.ChunksDropped++
		cs.BytesDamaged += used - n
		rep.note("core %d: chunk at offset %d dropped (anchor %d lost with metadata)",
			c.Core, off, c.AnchorIdx)
		return used
	}
	if verified {
		cs.ChunksRecovered++
	} else {
		cs.ChunksDamaged++
	}
	c.Data = c.Data[:framed]
	sv.f.Chunks = append(sv.f.Chunks, c)
	if c.Core == event.CorePPE {
		for _, o := range offs {
			if event.ID(binary.LittleEndian.Uint16(c.Data[o+1:o+3])) == event.LiveAnchor {
				sv.live++
			}
		}
	}
	cs.RecordsRecovered += len(offs)
	cs.BytesRecovered += framed
	cs.BytesDamaged += used - n - framed // consumed beyond the kept prefix
	return used
}

// resync scans forward from off for the next offset that could start a
// chunk or footer, accounting skipped bytes.
func resync(data []byte, off int, rep *SalvageReport) int {
	start := off
	for off < len(data) {
		if data[off] == ChunkMagic || isFooterAt(data, off) {
			break
		}
		off++
	}
	if off > start {
		rep.BytesSkipped += off - start
	}
	if off < len(data) && start > 0 {
		rep.Resyncs++
	}
	return off
}
