package analyzer

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"sync"

	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/spare"
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
// Summary and Profile are what Summarize and Profile return on the
// batch-loaded trace; kinds.Kind.FromStream reads them by kind.
type StreamResult struct {
	Trace   *Trace
	Summary *Summary
	Profile []PairProfile
	// Complete reports that the trace footer arrived and its checksum
	// verified; false on snapshots of a still-growing stream and on
	// truncated inputs.
	Complete bool
	// Bytes and Events count the input consumed so far.
	Bytes  int64
	Events int64
}

// Report renders the summary report of a streaming result: Report on
// its trace shell and summary.
func (r *StreamResult) Report(w io.Writer) { Report(r.Trace, r.Summary, w) }

// streamChunk is the chunk currently being framed.
type streamChunk struct {
	core      uint8
	remaining int // data bytes not yet consumed
	count     int // records framed across the whole chunk (MaxRecords cap)
	// data, offs and place hold the records framed and placed since the
	// last window cut: a copy of their encoded bytes, since they outlive
	// the Write that brought them, and each one's offset in it. A chunk
	// larger than the window contributes several pieces. The two buffers
	// are taken from the loader's spares when the piece frames its first
	// bytes, and go back to them once its window has merged.
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
// the batch tournament-tree merge.
//
// The kernels are the accumulators next to each batch function
// (summaryAcc with its ppeAcc, profileAcc, validateAcc): the batch
// functions fold the whole store as one segment, the loader folds one
// merged window at a time. Many windows give the one-segment result
// because window segments preserve the merged order within each core and
// each run (chunks decode in file order, the tracer writes each core in
// stamp order, and the in-window merge is the batch merge), and every
// kernel is a per-core/per-run state machine combined with
// order-insensitive sums. So the final results are identical to loading
// the whole trace and calling Summarize, Profile and Validate on it;
// stream_equiv_test.go checks that byte for byte on every workload.
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

	// Pending framed-but-unmerged chunk pieces for the current window, the
	// builder every window merges into, and the emptied buffers of pieces
	// already merged, which later pieces take instead of allocating: two
	// lists that keep at most a window between them.
	pending   []chunkStream
	pendRecs  int
	pendArgs  int
	pendStrs  []stringDef
	b         colstore.Builder
	spareData *spare.List[byte]
	spareOffs *spare.List[uint32]

	decoded int64 // records framed so far, checked against budget
	budget  int64

	// The kernels. All calls happen under mu.
	sum  summaryAcc
	prof profileAcc
	val  *validateAcc // nil unless StreamOptions.Validate

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
	spares := spare.NewBudget(window)
	l := &StreamLoader{
		opts:      opts,
		ctx:       ctx,
		window:    window,
		scan:      traceio.Scanner{Lim: opts.Limits},
		spareData: spare.New[byte](spareCount, spares),
		spareOffs: spare.New[uint32](spareCount, spares),
		budget:    recordBudget(opts.Limits),
		strings:   map[uint64]string{},
	}
	if opts.Validate {
		l.val = &validateAcc{}
	}
	return l
}

// fail latches a terminal error: every later Write and Finish returns it.
// No window follows one, so the window buffers go.
func (l *StreamLoader) fail(err error) error {
	if l.err == nil {
		l.err = err
		l.release()
	}
	return l.err
}

// release drops every buffer the windows used — the builder's columns,
// the pending and current pieces and the spares — once no window can
// follow, so a loader kept after its end keeps none of them.
func (l *StreamLoader) release() {
	l.b = colstore.Builder{}
	l.pending, l.spareData, l.spareOffs, l.cur = nil, nil, nil, streamChunk{}
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
			l.cutPiece()
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
			// An unresolvable anchor fails the load, as in the batch load
			// (Salvage drops such chunks first). A well-formed live stream
			// always delivers the anchor — a LiveAnchor record in an
			// earlier PPE chunk — before any chunk referencing it.
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
		if c.data == nil {
			// A new piece takes the buffers of one already merged: for
			// its bytes the smallest that holds the rest of its chunk, up
			// to half a window, for its offsets the smallest that holds
			// the fewest records those bytes can carry (a record is at
			// most 255 bytes), or else the smallest kept. The declared
			// length only chooses among buffers kept; nothing is
			// allocated from it.
			want := min(len(data)+c.remaining, int(l.window/2))
			if c.data = l.spareData.Get(want); c.data == nil {
				c.data = l.spareData.Get(0)
			}
			if c.offs = l.spareOffs.Get(want / math.MaxUint8); c.offs == nil {
				c.offs = l.spareOffs.Get(0)
			}
		}
		piece := data[:min(len(data), step)]
		from := len(c.offs)
		offs, n, err := traceio.FrameRecords(l.ctx, c.core, piece, c.offs, c.count, l.opts.Limits)
		if err != nil {
			return err
		}
		// The piece's bytes belong to the caller (or to l.tail) and its
		// records are merged windows later, so they move into the piece's
		// own buffer — a spare when one is left, grown from bytes present,
		// never from the chunk's declared length — and their offsets move
		// with them. A chunk arrives a Write at a time, so the buffer at
		// least doubles when it grows: append's 1.25x steps for large
		// slices would copy a chunk several times over. (Not slices.Grow:
		// under -race its append-of-make allocates the padding as well.)
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
				l.cutPiece()
			}
			if err := l.flushWindow(); err != nil {
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
func (l *StreamLoader) cutPiece() {
	c := &l.cur
	piece := c.place.stream(c.data, c.offs)
	l.pendStrs = append(l.pendStrs, c.place.strings...)
	switch {
	case len(piece.offs) > 0:
		l.pending = append(l.pending, piece)
		l.pendRecs += len(piece.offs)
		l.pendArgs += c.place.argWords
	case c.data != nil:
		l.recycle(piece) // framed nothing: its spare goes straight back
	}
	c.data, c.offs = nil, nil
	c.place = placement{run: c.place.run, anchorTB: c.place.anchorTB}
	c.anchorMark = len(l.scan.Meta.Anchors)
}

// flushWindow merges the pending chunk pieces into one columnar segment
// — the batch merge, so intra-window order is exactly the batch order,
// into columns sized to the window's exact record and argument counts —
// and folds it into every accumulator. Every window reuses the same
// builder's columns, and the merged pieces' byte and offset buffers
// become spares for the pieces that follow, so both what a stream holds
// and what it allocates are bounded by the window, not by the trace.
func (l *StreamLoader) flushWindow() error {
	if len(l.pending) == 0 {
		return nil
	}
	for _, sd := range l.pendStrs {
		l.strings[sd.ref] = sd.s
	}
	clear(l.pendStrs)
	l.pendStrs = l.pendStrs[:0]
	l.b.Reset(l.pendRecs, l.pendArgs)
	if err := mergeStreams(l.ctx, &l.b, l.pending); err != nil {
		return err
	}
	seg := l.b.Done()
	for _, p := range l.pending {
		l.recycle(p)
	}
	clear(l.pending)
	l.pending = l.pending[:0]
	l.pendRecs, l.pendArgs = 0, 0
	l.sum.cpt = cyclesPerTick(&l.scan.Header)
	l.sum.fold(seg)
	l.prof.fold(seg)
	if l.val != nil {
		l.val.fold(seg, l.strings)
	}
	return nil
}

// recycle offers the buffers of a piece whose records are merged, or
// were never framed, back to the spares. The lists keep at most a window
// between them, so what the loader keeps is bounded by its window, not
// by the trace.
func (l *StreamLoader) recycle(p chunkStream) {
	l.spareData.Put(p.data)
	l.spareOffs.Put(p.offs)
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
		if err := l.flushWindow(); err != nil {
			return nil, l.fail(err)
		}
		l.release()
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

// snapshotLocked materializes the kernel results over the events folded
// so far. The accumulators' result methods work on copies, so a snapshot
// of a finished stream is the batch result and a mid-stream snapshot
// leaves the live state machines undisturbed.
func (l *StreamLoader) snapshotLocked(final bool) *StreamResult {
	// The stream knows only the metadata's drop accounting; salvage damage
	// is a batch-only input.
	meta := l.scan.Meta
	conf := computeConfidence(&l.sum.perCore, meta.Drops, nil)
	var valIssues []Issue
	if final && l.val != nil {
		valIssues = l.val.result(&meta, conf, l.truncated)
	}
	return &StreamResult{
		Trace: &Trace{
			Header:  l.scan.Header,
			Meta:    meta,
			Strings: maps.Clone(l.strings),
			// Nil on a clean trace, like the batch load's.
			Issues:     append(append(fileIssues(l.truncated, meta.Drops), l.issues...), valIssues...),
			Truncated:  l.truncated,
			Confidence: conf,
		},
		Summary:  l.sum.result(&meta, conf),
		Profile:  l.prof.result(conf),
		Complete: l.complete && final,
		Bytes:    l.total(),
		Events:   int64(l.sum.events),
	}
}
