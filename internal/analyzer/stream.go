package analyzer

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// DefaultStreamWindowBytes is the working-memory budget a StreamLoader
// uses when Limits.StreamWindowBytes is zero: large enough that typical
// traces fold in a handful of segments, small enough that a 100 MB
// upload never holds more than a fraction of itself resident.
const DefaultStreamWindowBytes = 32 << 20

// StreamOptions configures a StreamLoader.
type StreamOptions struct {
	// Limits carries the admission-control caps (enforced cumulatively
	// as bytes arrive) and the StreamWindowBytes memory budget.
	Limits Limits
	// Validate folds the structural validator too. It is Validate's own
	// accumulator, so the findings are the batch findings; on a damaged
	// stream cut into several windows the "at seq" locators count rows in
	// fold order, which is the merged row index only within one window.
	Validate bool
	// Ctx, when non-nil, cancels in-flight decode and merge work; Write
	// and Finish return its error once it is done.
	Ctx context.Context
}

// StreamResult is a snapshot or final result of a streaming load: the
// trace shell (header, metadata, interned strings, issues, confidence —
// no event columns) plus the kernel results over the windows folded.
type StreamResult struct {
	Trace   *Trace
	Summary *Summary
	Profile []PairProfile
	PPE     PPEStats
	// EffectiveConcurrency is the time-averaged number of computing
	// SPEs, matching EffectiveConcurrency on the batch-loaded trace.
	EffectiveConcurrency float64
	// Complete reports that the trace footer arrived and its checksum
	// verified; false on snapshots of a still-growing stream and on
	// truncated inputs.
	Complete bool
	// Bytes and Events count the input consumed so far.
	Bytes  int64
	Events int64
}

// streamChunk is the chunk currently being framed.
type streamChunk struct {
	core      uint8
	remaining int // data bytes not yet consumed
	count     int // records framed across the whole chunk (MaxRecords cap)
	// data, offs and place hold the records framed and placed since the
	// last window cut: a copy of their encoded bytes, since they outlive
	// the Write that brought them, and each one's offset in it. A chunk
	// larger than the window contributes several pieces.
	data  []byte
	offs  []uint32
	place placement
	// Rollback marks: batch Parse drops a final chunk whose data was cut
	// off, so if the stream ends inside this chunk the issues and live
	// anchors past these marks go the way of its records (see Finish).
	issueMark  int
	anchorMark int
}

// StreamLoader consumes a PDT trace incrementally — from a growing
// file, an io.Reader, or an HTTP chunked upload — and folds it into the
// analysis kernels under a bounded memory window. It is an io.Writer:
// feed it bytes in any slicing, then call Finish. It drives the batch
// loader's own stages in arrival order: the framing comes from the
// traceio.Scanner that ParseContext walks (same errors, same truncation
// tolerance, same footer CRC check), records from traceio.FrameRecords,
// timeline placement from resolveAnchor and placement, and each window is
// merged — every record decoded once, into the window's columns — through
// the batch k-way heap merge. The kernels are the
// accumulators the batch functions fold over the whole store as one
// segment; their folds are order-insensitive beyond the per-core/per-run
// order the window cuts preserve — so the final results are identical to
// loading the whole trace and calling Summarize, Profile, SummarizePPE
// and Validate on it.
//
// Write and Finish must be called from one goroutine; Snapshot may be
// called concurrently from others (the live-tail path).
type StreamLoader struct {
	mu     sync.Mutex
	opts   StreamOptions
	ctx    context.Context
	window int64

	// Framing state. buf holds a framing element left incomplete by the
	// last Write, empty on the fast path; tail holds a record split
	// across chunk pieces (at most 255 bytes).
	scan    traceio.Scanner
	buf     []byte
	tail    []byte
	pos     int64  // absolute stream offset of the next unconsumed byte
	crc     uint32 // running CRC32 over all consumed bytes (footer check)
	inChunk bool   // the next cur.remaining bytes are cur's data
	done    bool   // the footer, or a bad one, ended parsing for good
	cur     streamChunk

	// Pending framed-but-unmerged chunk pieces for the current window, and
	// the builder every window merges into.
	pending  []chunkStream
	pendRecs int
	pendArgs int
	pendStrs []stringDef
	b        colstore.Builder

	decoded int64 // records framed so far, checked against budget
	budget  int64

	acc *streamAccumulators

	truncated bool
	complete  bool
	issues    []Issue // decode-time issues, batch (chunk) order
	strings   map[uint64]string
	err       error
	finished  bool
}

// NewStreamLoader returns a loader ready to consume a trace stream.
func NewStreamLoader(opts StreamOptions) *StreamLoader {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	window := opts.Limits.StreamWindowBytes
	if window <= 0 {
		window = DefaultStreamWindowBytes
	}
	l := &StreamLoader{
		opts:    opts,
		ctx:     ctx,
		window:  window,
		scan:    traceio.Scanner{Lim: opts.Limits},
		budget:  recordBudget(opts.Limits),
		strings: map[uint64]string{},
	}
	l.acc = newStreamAccumulators(opts, &l.scan.Header, &l.scan.Meta)
	return l
}

// fail latches a terminal error: every later Write and Finish returns it.
func (l *StreamLoader) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	return l.err
}

// Write consumes the next bytes of the trace stream. p is always fully
// consumed unless a terminal error (corrupt framing, admission cap,
// cancelled context) latches, in which case the same error returns from
// every subsequent call.
func (l *StreamLoader) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.finished {
		return 0, l.fail(errors.New("analyzer: stream write after Finish"))
	}
	if err := l.ctx.Err(); err != nil {
		return 0, l.fail(err)
	}
	if max, n := l.opts.Limits.MaxFileBytes, l.total()+int64(len(p)); max > 0 && n > max {
		return 0, l.fail(fmt.Errorf("%w: file size %d exceeds limit %d", ErrLimitExceeded, n, max))
	}
	// With nothing buffered everything parses and frames straight out of
	// p — the fast path every full-speed upload takes; only the framed
	// records' bytes are copied, to be merged with their window.
	in, buffered := p, len(l.buf) > 0
	if buffered {
		l.buf = append(l.buf, p...)
		in = l.buf
	}
	used, err := l.advance(in)
	if err != nil {
		return 0, l.fail(err)
	}
	switch rest := in[used:]; {
	case len(rest) == 0:
		l.buf = nil
	case buffered:
		l.buf = rest
	default:
		l.buf = append([]byte(nil), rest...)
	}
	return len(p), nil
}

// total returns the stream bytes received so far (consumed + buffered).
func (l *StreamLoader) total() int64 { return l.pos + int64(len(l.buf)) }

// take accounts consumed bytes: the running footer CRC and the offset.
func (l *StreamLoader) take(b []byte) int {
	l.crc = crc32.Update(l.crc, crc32.IEEETable, b)
	l.pos += int64(len(b))
	return len(b)
}

// advance walks the framing scanner over in — the stream bytes not yet
// consumed — exactly as ParseContext walks it over a whole image, and
// returns how many bytes it consumed. What is left is the front of an
// element that has not fully arrived.
func (l *StreamLoader) advance(in []byte) (used int, err error) {
	for !l.done {
		if l.inChunk {
			data := in[used : used+min(l.cur.remaining, len(in)-used)]
			if err := l.consumeChunkData(data); err != nil {
				return used, err
			}
			used += l.take(data)
			if l.cur.remaining > 0 {
				return used, nil // wait for the rest of the chunk
			}
			l.cutPiece(false)
			l.inChunk = false
			continue
		}
		kind, c, dataLen, n, err := l.scan.Next(in[used:], l.pos)
		if err != nil {
			return used, err
		}
		switch kind {
		case traceio.ElemNeedMore:
			return used, nil
		case traceio.ElemChunk:
			// Strict, unlike the salvaging batch path: an unresolvable
			// anchor fails the load. A well-formed live stream always
			// delivers the anchor — a LiveAnchor record in an earlier PPE
			// chunk — before any chunk referencing it.
			run, anchorTB, issue, err := resolveAnchor(&l.scan.Meta, c.Core, c.AnchorIdx)
			if err != nil {
				return used, err
			}
			l.cur = streamChunk{
				core:       c.Core,
				remaining:  dataLen,
				place:      placement{run: run, anchorTB: anchorTB},
				issueMark:  len(l.issues),
				anchorMark: len(l.scan.Meta.Anchors),
			}
			if issue != nil {
				l.issues = append(l.issues, *issue)
			}
			l.inChunk = true
		case traceio.ElemFooter:
			if l.crc != c.CRC {
				return used, fmt.Errorf("%w: got %#x want %#x", traceio.ErrCRC, l.crc, c.CRC)
			}
			l.complete, l.done = true, true
		case traceio.ElemBadFooter:
			l.truncated, l.done = true, true
		}
		used += l.take(in[used : used+n])
	}
	// Like Parse, ignore whatever follows the footer (it still counted
	// against MaxFileBytes).
	l.pos += int64(len(in) - used)
	return len(in), nil
}

// consumeChunkData feeds the next data bytes of the current chunk to the
// record loop, first completing a record split across pieces.
func (l *StreamLoader) consumeChunkData(data []byte) error {
	c := &l.cur
	c.remaining -= len(data)
	if len(l.tail) > 0 {
		need := min(int(l.tail[0])-len(l.tail), len(data))
		l.tail = append(l.tail, data[:need]...)
		data = data[need:]
		if len(l.tail) == int(l.tail[0]) {
			if err := l.framePiece(l.tail); err != nil {
				return err
			}
		}
	}
	if err := l.framePiece(data); err != nil {
		return err
	}
	if len(l.tail) > 0 && c.remaining == 0 {
		// The chunk ends inside a record: the partial record is dropped
		// with the batch decoder's warning, the records before it kept.
		l.tail = l.tail[:0]
		l.issues = append(l.issues,
			Issue{"warn", fmt.Sprintf("chunk for core %d truncated mid-record", c.core)})
	}
	return nil
}

// framePiece runs the record loop and placement over data — bytes of
// the current chunk starting at a record boundary — leaves a trailing
// partial record in l.tail, and paces the window.
func (l *StreamLoader) framePiece(data []byte) error {
	c := &l.cur
	// One step takes an eighth of the window, so a single huge Write
	// cannot outgrow it between pacing checks — but never less than one
	// whole record.
	step := max(int(l.window/8), 256)
	for len(data) > 0 {
		piece := data[:min(len(data), step)]
		from := len(c.offs)
		offs, n, err := traceio.FrameRecords(l.ctx, c.core, piece, c.offs, c.count, l.opts.Limits)
		if err != nil {
			return err
		}
		// The piece's bytes belong to the caller (or to l.tail) and its
		// records are merged windows later, so they move into the chunk's
		// own buffer — grown from bytes present, never from the chunk's
		// declared length — and their offsets move with them. A chunk
		// arrives a Write at a time, so the buffer at least doubles when it
		// grows: append's 1.25x steps for large slices would copy a chunk
		// several times over. (Not slices.Grow: under -race its
		// append-of-make allocates the padding as well.)
		base := uint32(len(c.data))
		for j := from; j < len(offs); j++ {
			offs[j] += base
		}
		if cap(c.data)-len(c.data) < n {
			c.data = append(make([]byte, 0, 2*len(c.data)+n), c.data...)
		}
		c.data = append(c.data, piece[:n]...)
		got := len(offs) - from
		c.offs, c.count, l.decoded = offs, c.count+got, l.decoded+int64(got)
		if l.budget > 0 && l.decoded > l.budget {
			return fmt.Errorf("%w: decoded records %d exceed budget %d (MaxRecords/MaxDecodeBytes)",
				ErrLimitExceeded, l.decoded, l.budget)
		}
		// Live streams deliver clock anchors in-band (the tracer appends
		// one as each run starts) instead of in the up-front metadata.
		c.place.place(c.data, c.offs, &l.scan.Meta.Anchors)

		// Window pacing. Only completed chunks fold by default, so an
		// end-of-stream truncation can still drop the current chunk exactly
		// as batch Parse does; a chunk that alone outgrows the window is cut
		// mid-chunk anyway — bounded memory wins over drop-parity there.
		// The budget counts records as the batch columns will hold them.
		curBytes := int64(len(c.offs))*eventFootprint + int64(c.place.argWords)*8
		pendBytes := int64(l.pendRecs)*eventFootprint + int64(l.pendArgs)*8
		if pendBytes+curBytes >= l.window/2 {
			if curBytes >= l.window/2 {
				l.cutPiece(true)
			}
			if err := l.flushWindow(false); err != nil {
				return err
			}
		}
		if len(piece) == len(data) {
			l.tail = append(l.tail[:0], data[n:]...)
			return nil
		}
		data = data[n:] // the step cap split a record: it starts the next step
	}
	return nil
}

// cutPiece moves the current chunk's framed records into the pending
// merge window as one stream piece. Their strings and live anchors are
// committed with them: a later rollback undoes only what follows.
//
// A cut inside a chunk (midChunk) keeps the latest record back to open
// the next piece. Pieces are sorted one by one, so a record may not be
// earlier than anything in the piece cut before it — and the tracer
// stamps a TRACE_FLUSH record after the record whose arrival forced the
// flush yet writes it first, so a chunk's newest record can still be
// overtaken by exactly its successor.
func (l *StreamLoader) cutPiece(midChunk bool) {
	c := &l.cur
	piece, args := c.place.stream(c.data, c.offs), c.place.argWords
	piece.core = c.core
	next := placement{run: c.place.run, anchorTB: c.place.anchorTB}
	c.data, c.offs = nil, nil
	if k := len(piece.offs) - 1; midChunk && k >= 0 {
		rec := piece.data[piece.offs[k]:]
		c.data, c.offs = append([]byte(nil), rec[:rec[0]]...), []uint32{0}
		next.place(c.data, c.offs, nil)
		piece.offs, piece.globals, args = piece.offs[:k], piece.globals[:k], args-next.argWords
	}
	l.pendStrs = append(l.pendStrs, c.place.strings...)
	c.place = next
	c.anchorMark = len(l.scan.Meta.Anchors)
	if len(piece.offs) > 0 {
		l.pending = append(l.pending, piece)
		l.pendRecs += len(piece.offs)
		l.pendArgs += args
	}
}

// flushWindow merges the pending chunk pieces into one columnar segment
// — the batch k-way heap merge, so intra-window order is exactly the
// batch order — and folds it into every accumulator. Every window reuses
// the same builder's columns, and the flushed pieces are cleared, not
// just truncated, so nothing of a folded window stays reachable: resident
// memory stays bounded by the window. Unless the window is the final
// one, each core's newest record is held back to open the next (holdBack).
func (l *StreamLoader) flushWindow(final bool) error {
	if len(l.pending) == 0 {
		return nil
	}
	for _, sd := range l.pendStrs {
		l.strings[sd.ref] = sd.s
	}
	clear(l.pendStrs)
	l.pendStrs = l.pendStrs[:0]
	var held []chunkStream
	if !final {
		held = l.holdBack()
	}
	l.b.Reset(l.pendRecs, l.pendArgs)
	if err := mergeStreams(l.ctx, &l.b, l.pending, l.pendRecs); err != nil {
		return err
	}
	seg := l.b.Done()
	clear(l.pending)
	l.pending = append(l.pending[:0], held...)
	l.pendRecs, l.pendArgs = len(held), 0
	for _, p := range held {
		l.pendArgs += int(p.data[13])
	}
	l.acc.fold(seg, l.strings)
	return nil
}

// holdBack takes the latest pending record of each chunk core — largest
// Global, last in file order among equals — out of the window, each in a
// piece of its own, in file order. A window may not fold a record later
// than one a later window brings for the same core, and the tracer writes
// each TRACE_FLUSH record ahead of the earlier-stamped record whose
// arrival forced the flush: where a chunk boundary falls between the two,
// the later chunk opens before the earlier one's latest record, and
// whatever follows the pair is later than both. cutPiece keeps the same
// record back when the cut falls inside a chunk.
func (l *StreamLoader) holdBack() (held []chunkStream) {
	var latest [256]*chunkStream // a piece is sorted: its last record is its latest
	for i := range l.pending {
		p := &l.pending[i]
		if q := latest[p.core]; q == nil || p.globals[len(p.globals)-1] >= q.globals[len(q.globals)-1] {
			latest[p.core] = p
		}
	}
	for i := range l.pending {
		if p := &l.pending[i]; latest[p.core] == p {
			k := len(p.offs) - 1
			rec := p.data[p.offs[k]:]
			held = append(held, chunkStream{data: append([]byte(nil), rec[:rec[0]]...),
				offs: []uint32{0}, globals: []uint64{p.globals[k]}, run: p.run, core: p.core})
			p.offs, p.globals = p.offs[:k], p.globals[:k]
		}
	}
	return held
}

// Events reports how many records have been decoded so far; it is safe
// to call concurrently with Write.
func (l *StreamLoader) Events() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.decoded
}

// Bytes returns the number of stream bytes received so far; like Events
// it is safe to call concurrently with Write.
func (l *StreamLoader) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total()
}

// Sealed reports that the stream's footer has arrived and its checksum
// verified — the writer closed the trace, so no more data is coming.
// Follow-mode readers use it to stop polling a live file.
func (l *StreamLoader) Sealed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.complete
}

// Err returns the latched terminal error, if any.
func (l *StreamLoader) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Finish flushes the final window, applies end-of-stream truncation
// semantics — a stream ending before the footer is Truncated, exactly
// like batch Parse — and returns the folded result. Idempotent.
func (l *StreamLoader) Finish() (*StreamResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return nil, l.err
	}
	if !l.finished {
		l.finished = true
		switch {
		case l.scan.Header.Version == 0:
			// Batch: too short to hold a header at all.
			return nil, l.fail(traceio.ErrBadMagic)
		case l.inChunk:
			// Ended inside a chunk: batch Parse drops a chunk whose
			// data was cut off, so undo this chunk's uncommitted side
			// effects (records, string defs, issues, live anchors). A
			// window-sized chunk may have cut earlier pieces already;
			// those stay — bounded memory made them irreversible.
			c := &l.cur
			l.issues = l.issues[:c.issueMark]
			l.scan.Meta.Anchors = l.scan.Meta.Anchors[:c.anchorMark]
			l.decoded -= int64(len(c.offs))
			l.cur = streamChunk{}
			l.truncated = true
		case !l.done:
			l.truncated = true // no footer
		}
		if err := l.flushWindow(true); err != nil {
			return nil, l.fail(err)
		}
		l.b = colstore.Builder{} // no window follows; a kept loader keeps no columns
	}
	return l.snapshotLocked(true), nil
}

// Snapshot returns the running analysis over every window folded so
// far — the live-tail view of a stream still being written. Records
// decoded but still inside the current window are not yet included;
// the final Finish result always is.
func (l *StreamLoader) Snapshot() *StreamResult {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked(false)
}

func (l *StreamLoader) snapshotLocked(final bool) *StreamResult {
	return l.acc.snapshot(snapshotInput{
		final:     final,
		truncated: l.truncated,
		complete:  l.complete && final,
		issues:    l.issues,
		strings:   l.strings,
		bytes:     l.total(),
	})
}

// StreamFile streams an on-disk trace through a StreamLoader in bounded
// reads and returns the final result — the flat-RSS alternative to
// LoadFile for traces larger than memory.
func StreamFile(ctx context.Context, path string, opts StreamOptions) (*StreamResult, error) {
	if opts.Ctx == nil {
		opts.Ctx = ctx
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	l := NewStreamLoader(opts)
	buf := make([]byte, 1<<20)
	for {
		n, rerr := f.Read(buf)
		if n > 0 {
			if _, werr := l.Write(buf[:n]); werr != nil {
				return nil, werr
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, rerr
		}
	}
	return l.Finish()
}
