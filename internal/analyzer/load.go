// Package analyzer implements the TA (trace analyzer) side of the paper:
// it loads PDT traces, reconstructs a globally ordered event stream from
// the per-core buffers (converting SPU-decrementer timestamps to PPE
// timebase time through the recorded anchor pairs), validates structural
// invariants, derives per-core state intervals (compute vs. the various
// stall classes), and produces the statistics, timelines and exports the
// paper's use cases rely on.
package analyzer

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// Limits re-exports the trace-format admission-control knobs: the
// analyzer enforces the record-count and decode-memory budgets that the
// byte-level parser cannot, and passes the rest down to traceio. The
// zero value disables all admission control.
type Limits = traceio.Limits

// ErrLimitExceeded is the typed admission-control failure; errors.Is
// matches it across the analyzer and traceio layers.
var ErrLimitExceeded = traceio.ErrLimitExceeded

// DefaultServiceLimits mirrors traceio.DefaultServiceLimits for callers
// that only import the analyzer.
func DefaultServiceLimits() Limits { return traceio.DefaultServiceLimits() }

// eventFootprint is the budgeted in-core cost of one decoded event in
// bytes under the columnar store: ~32 bytes of fixed-width columns, a
// couple of argument words, and the 8 bytes of per-core plus per-run
// index entries. MaxDecodeBytes divided by this gives the record budget
// the decode stage enforces; Trace.Footprint reports the exact measured
// size after the fact.
const eventFootprint = 64

// errDecodePanic marks a chunk whose decode panicked; the per-worker
// recovery converts it into a per-chunk Issue so one poisoned chunk
// cannot take down the whole load (or, in a service, the process).
var errDecodePanic = errors.New("analyzer: panic while decoding chunk")

// decodePanicHook, when non-nil, runs at the top of every chunk decode.
// Tests use it to inject panics and prove the recovery path; it is never
// set in production code.
var decodePanicHook func(chunk int)

// Issue is one validation finding.
type Issue struct {
	Severity string // "warn" or "error"
	Msg      string
}

func (i Issue) String() string { return i.Severity + ": " + i.Msg }

// Trace is a fully loaded and merged PDT trace. The event stream is one
// struct-of-arrays table (see colstore) that every caller scans: a row
// holds one record, its global time and its run.
type Trace struct {
	Header    traceio.Header
	Meta      traceio.Meta
	Strings   map[uint64]string
	Truncated bool
	Issues    []Issue // populated by Load (decoding) and Validate
	// Confidence estimates what fraction of the records the tracer
	// produced actually made it into the store, overall and per core —
	// 1.0 on a clean complete trace, lower when records were dropped at
	// trace time or lost to corruption (salvaged loads).
	Confidence Confidence

	// col is the columnar event store, in merged order (ascending
	// Global, stable by file position), so a row index is the event's
	// sequence number. Nil only on zero-value Traces. Every row was
	// written by the merge from a record event.Frame accepted, so its ID
	// is in the event table, and an SPE row's Run indexes Meta.Anchors.
	col *colstore.Store

	// coreSeq and runSeq map cores and runs to their rows of col in
	// stream order. Both index families are carved out of one shared
	// int32 arena each, built once at load, so per-core kernel shards
	// walk a contiguous index block instead of re-scanning the stream.
	coreSeq map[uint8][]int32
	runSeq  [][]int32
}

// LoadFile loads a trace from disk through the zero-copy path: the file
// is memory-mapped when the platform allows (plain read otherwise) and
// records decode straight out of the mapped region into the column
// arenas, which own copies of everything by the time the mapping is
// released.
func LoadFile(path string) (*Trace, error) {
	return LoadFileContext(context.Background(), path, Limits{})
}

// LoadFileContext loads a trace from disk under cancellation and
// admission control. See LoadFile for the mmap semantics.
func LoadFileContext(ctx context.Context, path string, lim Limits) (*Trace, error) {
	m, err := traceio.MapFile(path)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return LoadContext(ctx, m.Data(), lim)
}

// Load reads r to its end, then parses, decodes and merges the trace.
func Load(r io.Reader) (*Trace, error) {
	f, err := traceio.Read(r)
	if err != nil {
		return nil, err
	}
	return FromFile(f)
}

// LoadContext parses, decodes and merges a trace image under cancellation
// and admission control: oversized inputs, metadata blobs, declared chunk
// lengths, record counts, and decode-memory budgets are all rejected with
// ErrLimitExceeded, and a cancelled or expired ctx stops the pipeline
// promptly with ctx.Err(). The returned Trace holds no reference into
// data — decoding copies every string and argument word — so the caller
// may reuse or release the image as soon as the call returns.
func LoadContext(ctx context.Context, data []byte, lim Limits) (*Trace, error) {
	f, err := traceio.ParseContext(ctx, data, lim)
	if err != nil {
		return nil, err
	}
	return FromFileContext(ctx, f, lim)
}

// FromFile merges an already-parsed trace file through the parallel
// frame→merge→index pipeline: chunks are framed and placed on the
// timeline concurrently by a bounded worker pool, the per-chunk streams
// (each time-ordered at the source) are combined with a k-way heap merge
// that decodes every record once, straight into the columnar store, and
// the per-core and per-run index arenas are built once. The
// resulting event order is exactly the one a global stable sort produces
// (the tests' reference loader does just that): ascending Global time,
// ties broken by chunk position in the file, then record position within
// the chunk.
func FromFile(f *traceio.File) (*Trace, error) {
	return fromFile(context.Background(), f, runtime.GOMAXPROCS(0), false, Limits{})
}

// FromFileContext is FromFile under cancellation and admission control.
// Cancellation propagates to every decode worker and the merge loop; when
// it fires, all pipeline goroutines are joined before the call returns,
// so a cancelled load never leaks goroutines or leaves channels open.
func FromFileContext(ctx context.Context, f *traceio.File, lim Limits) (*Trace, error) {
	return fromFile(ctx, f, runtime.GOMAXPROCS(0), false, lim)
}

// newTrace builds the Trace shell: header, metadata, file-level issues.
func newTrace(f *traceio.File) *Trace {
	return &Trace{
		Header:    f.Header,
		Meta:      f.Meta,
		Strings:   map[uint64]string{},
		Truncated: f.Truncated,
		Issues:    fileIssues(f.Truncated, f.Meta.Drops),
	}
}

// fileIssues is the preamble every load path's Issues start with:
// truncation, then the tracer's own drop accounting.
func fileIssues(truncated bool, drops []traceio.Drop) []Issue {
	var issues []Issue
	if truncated {
		issues = append(issues, Issue{"warn", "trace is truncated (crashed or incomplete run)"})
	}
	for _, d := range drops {
		issues = append(issues,
			Issue{"warn", fmt.Sprintf("SPE %d dropped %d records (main trace region full)", d.SPE, d.Count)})
	}
	return issues
}

// resolveLiveAnchors rebuilds the anchor table of a live-streamed
// trace. A live stream's up-front metadata carries no anchors (it is
// written before any SPE program exists); the tracer instead emits a
// LiveAnchor record as each run starts. When an SPE chunk references an
// anchor index beyond the metadata table, scan the PPE chunks in file
// order and append the anchors their LiveAnchor records describe —
// emission order is anchor-index order, so the rebuilt table lines up
// with the chunk references. Sealed files resolve every index from
// metadata alone and skip the scan entirely.
func resolveLiveAnchors(f *traceio.File) {
	need := false
	for _, c := range f.Chunks {
		if c.Core != event.CorePPE && c.AnchorIdx != traceio.NoAnchor &&
			int(c.AnchorIdx) >= len(f.Meta.Anchors) {
			need = true
			break
		}
	}
	if !need {
		return
	}
	for _, c := range f.Chunks {
		if c.Core != event.CorePPE {
			continue
		}
		offs, _, err := traceio.FrameRecords(context.Background(), c.Core, c.Data, nil, 0, Limits{})
		if err != nil {
			continue
		}
		for _, off := range offs {
			appendLiveAnchor(&f.Meta.Anchors, c.Data[off:])
		}
	}
}

// The loaders read a framed record's header at its fixed offsets
// (docs/FORMAT.md, "Records"): size u8 | eventID u16 | core u8 |
// flags u8 | time u64 | nargs u8. Only the few records whose payload they
// need — STRING_DEF, LIVE_ANCHOR — are decoded whole, by decodeFramed.

// recordID reads the event ID of the framed record at the front of rec.
func recordID(rec []byte) event.ID { return event.ID(binary.LittleEndian.Uint16(rec[1:3])) }

// decodeFramed decodes the framed record at the front of rec.
func decodeFramed(rec []byte) event.Record {
	var r event.Record
	event.DecodeNext(&r, rec, nil)
	return r
}

// appendLiveAnchor appends the clock anchor an in-band LiveAnchor record
// — the framed record at the front of rec — carries; any other record is
// ignored.
func appendLiveAnchor(anchors *[]traceio.Anchor, rec []byte) {
	if recordID(rec) != event.LiveAnchor {
		return
	}
	if r := decodeFramed(rec); len(r.Args) == 3 {
		*anchors = append(*anchors, traceio.Anchor{
			SPE:      int(r.Args[0]),
			Timebase: r.Args[1],
			Loaded:   uint32(r.Args[2]),
			Program:  r.Str,
		})
	}
}

// stringDef is one interned string observed while placing a chunk.
type stringDef struct {
	ref uint64
	s   string
}

// chunkStream is one framed chunk ready for the k-way merge: its encoded
// records (data; the image's own bytes on the batch path, a copy on the
// streaming one), each record's offset in data in stream order, the
// parallel Global-timeline column (anchor times already resolved), and
// the run every record belongs to (-1 for PPE chunks). Twelve bytes per
// record instead of a decoded event.Record: each record is decoded once,
// by the merge, straight into its column row. core, the chunk's core, is
// set by the streaming loader, which keeps each core's newest record
// back from a window (StreamLoader.holdBack).
type chunkStream struct {
	data    []byte
	offs    []uint32
	globals []uint64
	run     int32
	core    uint8
}

// chunkResult is everything one worker produced for one chunk.
type chunkResult struct {
	stream   chunkStream
	argWords int // total argument words across records
	strings  []stringDef
	issues   []Issue
	err      error
}

// recordBudget folds the record-count and decode-memory limits into one
// cumulative cap on decoded records (0 = unlimited).
func recordBudget(lim Limits) int64 {
	budget := int64(0)
	if lim.MaxRecords > 0 {
		budget = int64(lim.MaxRecords)
	}
	if lim.MaxDecodeBytes > 0 {
		if b := lim.MaxDecodeBytes / eventFootprint; budget == 0 || b < budget {
			budget = b
		}
	}
	return budget
}

// admitChunks is the pre-decode admission check: every chunk's actual
// data size against MaxChunkBytes (hand-assembled Files bypass Parse, so
// the parser's check alone is not enough), and the cheap whole-file
// record upper bound against the combined record budget.
func admitChunks(f *traceio.File, lim Limits) error {
	if lim.Unlimited() {
		return nil
	}
	for _, c := range f.Chunks {
		if lim.MaxChunkBytes > 0 && len(c.Data) > lim.MaxChunkBytes {
			return fmt.Errorf("%w: chunk for core %d holds %d bytes, limit %d",
				ErrLimitExceeded, c.Core, len(c.Data), lim.MaxChunkBytes)
		}
	}
	return nil
}

// fromFile runs the pipeline with a bounded number of decode workers. In
// lenient mode (salvaged files), chunk decode errors and unresolvable
// anchors become Issues on the trace instead of failing the load, and
// whatever records did decode are kept. Cancellation and admission
// failures are never lenient: both stop the load with a typed error after
// every worker has been joined.
func fromFile(ctx context.Context, f *traceio.File, workers int, lenient bool, lim Limits) (*Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := admitChunks(f, lim); err != nil {
		return nil, err
	}
	resolveLiveAnchors(f)
	tr := newTrace(f)
	n := len(f.Chunks)
	if n == 0 {
		tr.finish(colstore.NewBuilder(0, 0).Done())
		return tr, nil
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	// decoded counts records cumulatively across workers so the combined
	// record/memory budget trips mid-decode, not after the fact.
	var decoded atomic.Int64
	budget := recordBudget(lim)

	results := make([]chunkResult, n)
	if workers == 1 {
		for i := range f.Chunks {
			if ctx.Err() != nil {
				break
			}
			results[i] = frameChunk(ctx, f, i, lenient, lim, &decoded, budget)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					if ctx.Err() != nil {
						// Drain remaining indexes without decoding so the
						// feeder never blocks and the pool winds down fast.
						continue
					}
					results[i] = frameChunk(ctx, f, i, lenient, lim, &decoded, budget)
				}
			}()
		}
	feed:
		for i := 0; i < n; i++ {
			select {
			case idx <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(idx)
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Aggregate in chunk order so issues, string interning and the error
	// returned are deterministic and identical to the serial path. Panics
	// recovered in a worker become per-chunk issues (the chunk's records
	// are lost to the unwind); admission failures abort even lenient
	// loads.
	total, argWords := 0, 0
	streams := make([]chunkStream, n)
	for i := range results {
		r := &results[i]
		if r.err != nil {
			switch {
			case errors.Is(r.err, errDecodePanic):
				tr.Issues = append(tr.Issues, Issue{"error", r.err.Error()})
				continue
			case errors.Is(r.err, ErrLimitExceeded), errors.Is(r.err, context.Canceled),
				errors.Is(r.err, context.DeadlineExceeded), !lenient:
				return nil, r.err
			default:
				// Lenient decode damage was already folded into r.issues
				// by the worker; r.err is only set on hard failures.
				return nil, r.err
			}
		}
		tr.Issues = append(tr.Issues, r.issues...)
		for _, sd := range r.strings {
			tr.Strings[sd.ref] = sd.s
		}
		streams[i] = r.stream
		total += len(r.stream.offs)
		argWords += r.argWords
	}
	b := colstore.NewBuilder(total, argWords)
	if err := mergeStreams(ctx, b, streams, total); err != nil {
		return nil, err
	}
	tr.finish(b.Done())
	return tr, nil
}

// finish installs the built columns and derives the indexes and
// confidence shared by every load path.
func (tr *Trace) finish(s *colstore.Store) {
	tr.col = s
	tr.buildIndexes()
	tr.Confidence = tr.confidence(nil)
}

// frameChunk runs one whole chunk through the record loop and placement,
// collecting its merge stream, interned strings and issues. Its records
// stay encoded in the chunk's data until the merge decodes them.
//
// A panic anywhere in the work is recovered and converted into a
// per-chunk errDecodePanic, so one poisoned chunk degrades into a trace
// Issue instead of crashing the worker pool. decoded accumulates the
// cross-chunk record count against budget (0 = unlimited).
func frameChunk(ctx context.Context, f *traceio.File, i int, lenient bool, lim Limits, decoded *atomic.Int64, budget int64) (res chunkResult) {
	c := f.Chunks[i]
	defer func() {
		if r := recover(); r != nil {
			res = chunkResult{err: fmt.Errorf("%w: core %d chunk %d: %v", errDecodePanic, c.Core, i, r)}
		}
	}()
	if decodePanicHook != nil {
		decodePanicHook(i)
	}
	offs, n, err := traceio.FrameRecords(ctx, c.Core, c.Data, nil, 0, lim)
	trunc := err == nil && n < len(c.Data)
	if err != nil {
		if errors.Is(err, ErrLimitExceeded) || ctx.Err() != nil {
			res.err = err
			return res
		}
		if !lenient {
			res.err = err
			return res
		}
		// Lenient (salvaged) load: keep the records that did decode and
		// surface the damage as an issue.
		res.issues = append(res.issues,
			Issue{"error", fmt.Sprintf("chunk for core %d: decode stopped after %d records: %v",
				c.Core, len(offs), err)})
	}
	if budget > 0 {
		if n := decoded.Add(int64(len(offs))); n > budget {
			res = chunkResult{err: fmt.Errorf("%w: decoded records %d exceed budget %d (MaxRecords/MaxDecodeBytes)",
				ErrLimitExceeded, n, budget)}
			return res
		}
	}
	if trunc {
		res.issues = append(res.issues,
			Issue{"warn", fmt.Sprintf("chunk for core %d truncated mid-record", c.Core)})
	}
	run, anchorTB, issue, err := resolveAnchor(&f.Meta, c.Core, c.AnchorIdx)
	if err != nil {
		if !lenient {
			res.err = err
			return res
		}
		// No anchor to place this chunk on the timeline: drop it.
		res.issues = append(res.issues,
			Issue{"error", fmt.Sprintf("chunk for SPE %d dropped: anchor %d of %d unresolvable",
				c.Core, c.AnchorIdx, len(f.Meta.Anchors))})
		return res
	}
	if issue != nil {
		res.issues = append(res.issues, *issue)
	}
	// Live anchors were collected up front (resolveLiveAnchors): parallel
	// workers need the whole table before any of them starts.
	p := placement{run: run, anchorTB: anchorTB}
	p.place(c.Data, offs, nil)
	res.stream, res.argWords, res.strings = p.stream(c.Data, offs), p.argWords, p.strings
	return res
}

// resolveAnchor finds a chunk's place on the global timeline: the run
// its records belong to (-1 for PPE chunks, whose times already are
// timebase ticks) and the timebase tick its decrementer times count
// from. An anchor recorded for a different SPE is reported as an issue;
// an index past the anchor table is an error, because the chunk cannot
// be placed at all — whether that fails the load or only drops the chunk
// is the caller's policy.
func resolveAnchor(meta *traceio.Meta, core uint8, anchorIdx uint16) (run int32, anchorTB uint64, issue *Issue, err error) {
	if core == event.CorePPE {
		return -1, 0, nil, nil
	}
	if int(anchorIdx) >= len(meta.Anchors) {
		return 0, 0, nil, fmt.Errorf("analyzer: chunk for SPE %d references anchor %d of %d",
			core, anchorIdx, len(meta.Anchors))
	}
	a := meta.Anchors[anchorIdx]
	if a.SPE != int(core) {
		issue = &Issue{"error", fmt.Sprintf("anchor %d is for SPE %d but chunk is core %d", anchorIdx, a.SPE, core)}
	}
	return int32(anchorIdx), a.Timebase, issue, nil
}

// placement puts one chunk's records on the global timeline as they are
// framed: the whole chunk at once on the batch path, piece by piece on
// the streaming path. The zero value plus run and anchorTB (from
// resolveAnchor) is ready to use.
type placement struct {
	run      int32
	anchorTB uint64
	globals  []uint64 // Global time of every record placed so far
	argWords int      // total argument words across them
	unsorted bool     // some record is earlier than its predecessor
	strings  []stringDef
}

// place resolves the records of offs not placed yet — offs locates the
// chunk's framed records in data and grows with it, globals is its
// parallel timeline column — collecting interned strings on the way.
// With live non-nil, in-band LiveAnchor records are appended to it: a
// live stream's anchor table grows as it is read.
func (p *placement) place(data []byte, offs []uint32, live *[]traceio.Anchor) {
	from := len(p.globals)
	p.globals = slices.Grow(p.globals, len(offs)-from)[:len(offs)]
	for j := from; j < len(offs); j++ {
		rec := data[offs[j]:]
		g := binary.LittleEndian.Uint64(rec[5:13])
		if rec[4]&event.FlagDecrTime != 0 {
			// SPU decrementer time: elapsed ticks since the anchor.
			g += p.anchorTB
		}
		p.globals[j] = g
		p.argWords += int(rec[13])
		switch recordID(rec) {
		case event.StringDef:
			r := decodeFramed(rec)
			p.strings = append(p.strings, stringDef{r.Args[0], r.Str})
		case event.LiveAnchor:
			if live != nil {
				appendLiveAnchor(live, rec)
			}
		}
		if j > 0 && p.globals[j-1] > g {
			p.unsorted = true
		}
	}
}

// stream hands the placed records to the k-way merge, ascending in
// Global. Chunks are nearly time-ordered at the source — the tracer
// writes each TRACE_FLUSH record ahead of the earlier-stamped record that
// forced the flush, and foreign traces may do worse — so one that is not
// is stable-sorted here, which preserves exact equivalence with a global
// stable sort. Only the offsets move; the records stay where they are.
func (p *placement) stream(data []byte, offs []uint32) chunkStream {
	if p.unsorted {
		sort.Stable(&streamSorter{offs, p.globals})
	}
	return chunkStream{data: data, offs: offs, globals: p.globals, run: p.run}
}

// streamSorter stable-sorts a framed chunk by Global, keeping the
// offset and timeline slices aligned.
type streamSorter struct {
	offs    []uint32
	globals []uint64
}

func (s *streamSorter) Len() int           { return len(s.offs) }
func (s *streamSorter) Less(i, j int) bool { return s.globals[i] < s.globals[j] }
func (s *streamSorter) Swap(i, j int) {
	s.offs[i], s.offs[j] = s.offs[j], s.offs[i]
	s.globals[i], s.globals[j] = s.globals[j], s.globals[i]
}

// streamHead is one live input of the k-way merge: a chunk's stream and
// a cursor into it. Heads sit at fixed positions in one array; only the
// small mergeEnt keys move through the heap.
type streamHead struct {
	chunkStream
	pos int
}

// mergeEnt is one heap entry: the cached next key of a stream plus the
// stream's identity. 16 bytes, so heap swaps are two register moves
// instead of duffcopying whole stream heads, and the comparisons — the
// hottest reads of the merge — touch only the heap slice itself.
type mergeEnt struct {
	nextG uint64 // == head.globals[head.pos] while the stream is live
	idx   int32  // chunk file position: breaks Global ties
	hi    int32  // index into the heads array
}

// entLess orders heap entries by (Global of next event, chunk index);
// the chunk index is unique, so the order is total and the merge output
// is exactly the stable-sort order over the chunk-concatenated stream.
func entLess(a, b mergeEnt) bool {
	return a.nextG < b.nextG || (a.nextG == b.nextG && a.idx < b.idx)
}

func siftDown(h []mergeEnt, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && entLess(h[r], h[l]) {
			m = r
		}
		if !entLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// mergeCtxStride is how many merged events pass between context polls in
// the k-way merge hot loop: cheap enough to be invisible, frequent enough
// that cancellation lands well inside the 100 ms budget even on
// multi-million-event traces.
const mergeCtxStride = 1 << 14

// mergeStreams k-way merges per-chunk event streams, each ascending in
// Global, into the columnar builder: O(N log k) instead of the
// O(N log N) global sort, with no reflection in the hot loop. This is
// where each framed record is decoded, once, straight from its encoded
// bytes into its final column row (the transient per-chunk offset and
// timeline slices die here). The merge polls ctx every mergeCtxStride
// events and aborts with ctx.Err().
func mergeStreams(ctx context.Context, b *colstore.Builder, streams []chunkStream, total int) error {
	heads := make([]streamHead, 0, len(streams))
	h := make([]mergeEnt, 0, len(streams))
	for i := range streams {
		s := &streams[i]
		if len(s.offs) > 0 {
			h = append(h, mergeEnt{nextG: s.globals[0], idx: int32(i), hi: int32(len(heads))})
			heads = append(heads, streamHead{chunkStream: *s})
		}
	}
	if len(h) == 0 {
		return nil
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	poll := mergeCtxStride
	for len(h) > 1 {
		// The runner-up entry (the smaller heap child of the root) bounds
		// how far the top stream may drain before the heap must be
		// re-established. Chunks are time-clustered — each SPE run owns a
		// contiguous region of the timeline — so draining a whole run per
		// heap round replaces one siftDown per event with one per run.
		e := h[0]
		hd := &heads[e.hi]
		r := 1
		if 2 < len(h) && entLess(h[2], h[1]) {
			r = 2
		}
		runner := h[r]
		g := e.nextG
		exhausted := false
		for {
			if poll--; poll <= 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
				poll = mergeCtxStride
			}
			if g > runner.nextG || (g == runner.nextG && e.idx > runner.idx) {
				break
			}
			b.AppendEncoded(hd.data[hd.offs[hd.pos]:], g, hd.run)
			hd.pos++
			if hd.pos == len(hd.offs) {
				exhausted = true
				break
			}
			g = hd.globals[hd.pos]
		}
		if exhausted {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			h[0].nextG = g
		}
		siftDown(h, 0)
	}
	// Sole surviving stream: drain its tail without heap maintenance.
	hd := &heads[h[0].hi]
	for ; hd.pos < len(hd.offs); hd.pos++ {
		b.AppendEncoded(hd.data[hd.offs[hd.pos]:], hd.globals[hd.pos], hd.run)
	}
	return nil
}

// buildIndexes precomputes the per-core and per-run row-index arenas in
// two passes (count, then fill) so each index family is one allocation
// carved into contiguous per-core (per-run) blocks.
func (tr *Trace) buildIndexes() {
	s := tr.col
	n := s.Len()
	var coreCount [257]int // prefix offsets; entry c counts core c
	runCount := make([]int, len(tr.Meta.Anchors))
	for i := 0; i < n; i++ {
		coreCount[s.Core[i]]++
		if r := s.Run[i]; r >= 0 && int(r) < len(runCount) {
			runCount[r]++
		}
	}
	distinct := 0
	for c := 0; c < 256; c++ {
		if coreCount[c] > 0 {
			distinct++
		}
	}
	coreArena := make([]int32, n)
	var coreOff [257]int
	sum := 0
	for c := 0; c < 256; c++ {
		coreOff[c] = sum
		sum += coreCount[c]
	}
	coreOff[256] = sum

	runTotal := 0
	for _, c := range runCount {
		runTotal += c
	}
	runArena := make([]int32, runTotal)
	runOff := make([]int, len(runCount)+1)
	sum = 0
	for r, c := range runCount {
		runOff[r] = sum
		sum += c
	}
	runOff[len(runCount)] = sum

	coreCur := coreOff
	runCur := append([]int(nil), runOff...)
	for i := 0; i < n; i++ {
		c := s.Core[i]
		coreArena[coreCur[c]] = int32(i)
		coreCur[c]++
		if r := s.Run[i]; r >= 0 && int(r) < len(runCount) {
			runArena[runCur[r]] = int32(i)
			runCur[r]++
		}
	}
	tr.coreSeq = make(map[uint8][]int32, distinct)
	for c := 0; c < 256; c++ {
		if coreCount[c] > 0 {
			tr.coreSeq[uint8(c)] = coreArena[coreOff[c]:coreOff[c+1]:coreOff[c+1]]
		}
	}
	tr.runSeq = make([][]int32, len(runCount))
	for r := range runCount {
		if runCount[r] > 0 {
			tr.runSeq[r] = runArena[runOff[r]:runOff[r+1]:runOff[r+1]]
		}
	}
}

// NumEvents returns the number of events in the merged stream.
func (tr *Trace) NumEvents() int {
	if tr.col == nil {
		return 0
	}
	return tr.col.Len()
}

// Columns exposes the raw columnar store for kernels in sibling packages
// (analyzer/diff scans it directly). Nil on zero-value Traces; callers
// must not mutate it.
func (tr *Trace) Columns() *colstore.Store { return tr.col }

// segment returns the whole store as the single segment the batch
// kernels fold: empty, never nil, on a zero-value Trace.
func (tr *Trace) segment() *colstore.Store {
	if tr.col == nil {
		return &colstore.Store{}
	}
	return tr.col
}

// StringRef resolves an interned string reference.
func (tr *Trace) StringRef(ref uint64) string {
	if s, ok := tr.Strings[ref]; ok {
		return s
	}
	return fmt.Sprintf("<str:%d>", ref)
}

// CoreSeqs returns the row indexes of one core's events in stream order
// (one contiguous block of the core index arena). Callers must not
// modify it.
func (tr *Trace) CoreSeqs(core uint8) []int32 { return tr.coreSeq[core] }

// RunSeqs returns the row indexes of one SPE program run in stream
// order, or nil when run is out of range (PPE events carry run -1 and
// are found by scanning the Run column). Callers must not modify it.
func (tr *Trace) RunSeqs(run int) []int32 {
	if run >= 0 && run < len(tr.runSeq) {
		return tr.runSeq[run]
	}
	return nil
}

// Span returns the [first, last] global time covered by the trace.
func (tr *Trace) Span() (start, end uint64) {
	if tr.NumEvents() == 0 {
		return 0, 0
	}
	return tr.col.Global[0], tr.col.Global[tr.col.Len()-1]
}

// CyclesPerTick converts timebase ticks to processor cycles.
func (tr *Trace) CyclesPerTick() uint64 { return cyclesPerTick(&tr.Header) }

func cyclesPerTick(h *traceio.Header) uint64 {
	if h.TimebaseDiv == 0 {
		return 1
	}
	return h.TimebaseDiv
}
