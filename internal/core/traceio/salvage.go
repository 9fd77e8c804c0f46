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
	ChunksRecovered  int // chunk CRC verified (or v1 chunk that decoded cleanly)
	ChunksDamaged    int // kept, but CRC mismatch or trimmed to a decodable prefix
	ChunksDropped    int // identified but unusable (SPE chunk with no surviving anchor)
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
// header and metadata leniently, resynchronizes on chunk magic bytes past
// corrupted or inserted regions, verifies each candidate chunk against its
// header CRC (version 2), trims structurally corrupt chunks to their
// decodable prefix, and tolerates a missing footer or file-CRC mismatch.
//
// The returned File contains only usable chunks: every chunk's Data
// decodes without structural errors, and every SPE chunk's AnchorIdx
// resolves in the (possibly lost) metadata or, in a live-streamed trace,
// names a LIVE_ANCHOR record of an earlier kept PPE chunk. The report is
// always non-nil.
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

	chdr := chunkHeaderLen(f.Header.Version)
	sawValidFooter := false
	// synced: the previous structure parsed cleanly, so a plausible chunk
	// header at off is trusted even if its payload is damaged. After a
	// resync the next candidate must additionally prove itself (CRC match
	// or at least one decodable record).
	synced := rep.MetaOK
	// live counts the LIVE_ANCHOR records of the PPE chunks kept so far:
	// a live stream's anchors arrive in-band, and the load appends them to
	// the metadata's table in file order.
	live := 0

	for iter := 0; off < len(data); iter++ {
		if err := checkEvery(ctx, iter); err != nil {
			return nil, rep, err
		}
		if isFooterAt(data, off) {
			want := binary.LittleEndian.Uint32(data[off+4 : off+8])
			if crc32.ChecksumIEEE(data[:off]) == want {
				rep.FooterOK = true
				sawValidFooter = true
			} else {
				rep.note("footer CRC mismatch at offset %d", off)
			}
			rep.BytesStructural += 8
			off += 8
			if off < len(data) {
				rep.note("%d trailing bytes after footer ignored", len(data)-off)
				rep.BytesSkipped += len(data) - off
			}
			break
		}
		used, trusted, ok := salvageChunkAt(data, off, chdr, f, rep, synced, &live)
		if !ok {
			// Not a chunk here: skip this byte and scan for the next
			// candidate boundary.
			rep.BytesSkipped++
			off = resync(data, off+1, rep)
			synced = false
			continue
		}
		// Only a verified chunk (or one whose claimed length landed on a
		// believable boundary) leaves the scanner at a trusted position;
		// after a trimmed chunk the next candidate must prove itself.
		synced = trusted
		off += used
	}
	f.Truncated = !sawValidFooter

	if !rep.HeaderOK && !rep.MetaOK && len(f.Chunks) == 0 {
		return nil, rep, fmt.Errorf("%w (%d bytes scanned)", ErrUnsalvageable, len(data))
	}
	return f, rep, nil
}

// isFooterAt reports whether a complete footer starts at off.
func isFooterAt(data []byte, off int) bool {
	return len(data)-off >= 8 && string(data[off:off+4]) == FooterMagic
}

// plausibleChunkHeader checks the cheap structural constraints of a chunk
// header at off: magic, a core byte that names an SPE or a PPE stream, and
// an anchor index that is NoAnchor or below anchors (when metadata
// survived).
func plausibleChunkHeader(data []byte, off, chdr, anchors int, haveMeta bool) bool {
	if len(data)-off < chdr || data[off] != ChunkMagic {
		return false
	}
	core := data[off+1]
	if core >= maxPlausibleSPE && core < event.CorePPEBase {
		return false
	}
	anchorIdx := binary.LittleEndian.Uint16(data[off+2 : off+4])
	if anchorIdx != NoAnchor && haveMeta && int(anchorIdx) >= anchors {
		return false
	}
	return true
}

// boundaryAt reports whether off is a believable next-structure position:
// end of input, a footer, or another chunk magic.
func boundaryAt(data []byte, off int) bool {
	return off == len(data) || isFooterAt(data, off) ||
		(off < len(data) && data[off] == ChunkMagic)
}

// salvageChunkAt attempts to recover the chunk starting at off, appending
// it to f when usable and accounting every consumed byte in rep. It
// returns the bytes consumed and whether a chunk structure was identified
// at all (ok=false means "this is not a chunk — resync"). live counts the
// LIVE_ANCHOR records kept so far; a kept main-PPE chunk adds its own.
func salvageChunkAt(data []byte, off, chdr int, f *File, rep *SalvageReport, synced bool, live *int) (used int, trusted, ok bool) {
	anchors := len(f.Meta.Anchors) + *live
	if !plausibleChunkHeader(data, off, chdr, anchors, rep.MetaOK) {
		return 0, false, false
	}
	core := data[off+1]
	anchorIdx := binary.LittleEndian.Uint16(data[off+2 : off+4])
	clen := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
	var hdrCRC uint32
	if chdr == 12 {
		hdrCRC = binary.LittleEndian.Uint32(data[off+8 : off+12])
	}
	body := off + chdr

	overEOF := body+clen > len(data)
	avail := clen
	if overEOF {
		avail = len(data) - body
	}
	raw := data[body : body+avail]

	verified := chdr == 12 && !overEOF &&
		ChunkCRC(Chunk{Core: core, AnchorIdx: anchorIdx, Data: raw}) == hdrCRC
	recs, decodable := decodablePrefix(raw)
	if chdr != 12 && !overEOF && decodable == len(raw) {
		// Version 1 chunk with no CRC to check: a full clean decode is
		// the best evidence available.
		verified = true
	}

	if !synced && recs == 0 && !(verified && clen > 0) {
		// A resync candidate must prove itself: a non-empty CRC match or
		// at least one decodable record. (An empty chunk's CRC matching
		// proves nothing — the checksum of zero bytes is always zero.)
		return 0, false, false
	}

	// Decide how far to trust the header's length. A verified chunk
	// consumes exactly its claimed extent. A damaged one consumes its
	// claimed extent only when that lands on a believable boundary
	// (otherwise the length field itself is suspect, so give the scanner
	// the tail back rather than swallowing later chunks).
	keptBytes := decodable // data bytes credited to this chunk
	var damagedTail int    // consumed data bytes beyond the kept prefix
	switch {
	case verified:
		used = chdr + clen
		keptBytes = len(raw)
		trusted = true
	case !overEOF && boundaryAt(data, body+clen):
		used = chdr + clen
		damagedTail = clen - decodable
		trusted = true
	default:
		used = chdr + decodable
	}
	rep.BytesStructural += chdr

	cs := rep.core(core)
	if verified {
		cs.ChunksRecovered++
		rep.ChunksRecovered++
	} else {
		cs.ChunksDamaged++
		rep.ChunksDamaged++
		if overEOF {
			rep.note("core %d: chunk at offset %d truncated at EOF (%d of %d bytes decodable)",
				core, off, decodable, avail)
		} else {
			rep.note("core %d: chunk at offset %d damaged (%d of %d bytes decodable, %d records)",
				core, off, decodable, clen, recs)
		}
	}

	// An SPE chunk whose anchor did not survive cannot be placed on the
	// global timeline; account it but keep it out of the file.
	if core < event.CorePPEBase &&
		(anchorIdx == NoAnchor || int(anchorIdx) >= anchors) {
		if verified {
			// Reclassify: identified and intact, but unusable.
			cs.ChunksRecovered--
			rep.ChunksRecovered--
			cs.ChunksDamaged++
			rep.ChunksDamaged++
		}
		cs.ChunksDropped++
		rep.ChunksDropped++
		cs.BytesDamaged += keptBytes + damagedTail
		rep.BytesDamaged += keptBytes + damagedTail
		rep.note("core %d: chunk at offset %d dropped (anchor %d lost with metadata)",
			core, off, anchorIdx)
		return used, trusted, true
	}

	keep := raw
	if !verified {
		keep = raw[:decodable]
	}
	f.Chunks = append(f.Chunks, Chunk{Core: core, AnchorIdx: anchorIdx, Data: keep, CRC: hdrCRC})
	if core == event.CorePPE {
		*live += liveAnchors(keep)
	}
	cs.RecordsRecovered += recs
	rep.RecordsRecovered += recs
	cs.BytesRecovered += keptBytes
	rep.BytesRecovered += keptBytes
	cs.BytesDamaged += damagedTail
	rep.BytesDamaged += damagedTail
	return used, trusted, true
}

// liveAnchors counts the LIVE_ANCHOR records of a main-PPE chunk, as the
// analyzer's load does when it rebuilds a live trace's anchor table: none
// when the chunk does not frame cleanly. Framing checks every record's
// arity, so each one counted carries an anchor.
func liveAnchors(data []byte) int {
	offs, _, err := FrameRecords(context.Background(), event.CorePPE, data, nil, 0, Limits{})
	if err != nil {
		return 0
	}
	n := 0
	for _, off := range offs {
		if event.ID(binary.LittleEndian.Uint16(data[off+1:off+3])) == event.LiveAnchor {
			n++
		}
	}
	return n
}

// decodablePrefix returns how many records decode from the front of data
// and the byte length of that structurally sound prefix (zero padding runs
// included, a trailing partial record excluded).
func decodablePrefix(data []byte) (recs, n int) {
	off := 0
	for off < len(data) {
		if data[off] == 0 {
			z := off
			for z < len(data) && data[z] == 0 {
				z++
			}
			off = z
			continue
		}
		sz, err := event.Frame(data[off:])
		if err != nil {
			return recs, off
		}
		recs++
		off += sz
	}
	return recs, off
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
