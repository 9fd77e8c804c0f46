// Package analyzer implements the TA (trace analyzer) side of the paper:
// it loads PDT traces, reconstructs a globally ordered event stream from
// the per-core buffers (converting SPU-decrementer timestamps to PPE
// timebase time through the recorded anchor pairs), validates structural
// invariants, derives per-core state intervals (compute vs. the various
// stall classes), and produces the statistics, timelines and exports the
// paper's use cases rely on.
package analyzer

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
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
// bytes under the columnar store: 24 bytes of fixed-width columns and 4
// of argument offset, a couple of argument words, the 8 bytes of
// per-core plus per-run index entries, and the 4-byte offset a framed
// record holds until the merge. MaxDecodeBytes divided by this gives the
// record budget the decode stage enforces, and a stream paces its
// windows in it, so it stays at 64 now that the columns are smaller:
// window cut points and Validate's "at seq" locators do not move.
// Trace.Footprint reports the exact measured size after the fact.
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
// (each time-ordered at the source) are combined by a tournament-tree
// merge that decodes every record once, straight into the columnar
// store, and the per-core and per-run index arenas are built once. The
// resulting event order is exactly the one a global stable sort produces
// (the tests' reference loader does just that): ascending Global time,
// ties broken by chunk position in the file, then record position within
// the chunk.
func FromFile(f *traceio.File) (*Trace, error) {
	return fromFile(context.Background(), f, runtime.GOMAXPROCS(0), Limits{})
}

// FromFileContext is FromFile under cancellation and admission control.
// Cancellation propagates to every decode worker and the merge loop; when
// it fires, all pipeline goroutines are joined before the call returns,
// so a cancelled load never leaks goroutines or leaves channels open.
func FromFileContext(ctx context.Context, f *traceio.File, lim Limits) (*Trace, error) {
	return fromFile(ctx, f, runtime.GOMAXPROCS(0), lim)
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
// metadata alone and skip the scan entirely. The scan polls ctx as the
// decode does and returns its error.
func resolveLiveAnchors(ctx context.Context, f *traceio.File) error {
	need := false
	for _, c := range f.Chunks {
		if c.Core != event.CorePPE && c.AnchorIdx != traceio.NoAnchor &&
			int(c.AnchorIdx) >= len(f.Meta.Anchors) {
			need = true
			break
		}
	}
	if !need {
		return nil
	}
	for _, c := range f.Chunks {
		if c.Core != event.CorePPE {
			continue
		}
		// A chunk that does not frame fails the load later, in frameChunk.
		offs, _, err := traceio.FrameRecords(ctx, c.Core, c.Data, nil, 0, Limits{})
		if err != nil && !errors.Is(err, traceio.ErrCorrupt) {
			return err
		}
		for _, off := range offs {
			appendLiveAnchor(&f.Meta.Anchors, c.Data[off:])
		}
	}
	return nil
}

// The loaders read a framed record's header at its fixed offsets
// (docs/FORMAT.md, "Records"): size u8 | eventID u16 | core u8 |
// flags u8 | time u64 | nargs u8. Only the few records whose payload they
// need — STRING_DEF, LIVE_ANCHOR — are decoded whole, by decodeFramed.

// recordID reads the event ID of the framed record at the front of rec.
func recordID(rec []byte) event.ID { return event.ID(binary.LittleEndian.Uint16(rec[1:3])) }

// recordGlobal places the framed record at the front of rec on the
// global timeline: its stamp, plus anchorTB when the stamp is SPU
// decrementer time (elapsed ticks since the run's anchor). Placement and
// the merge both read a record's Global time here, straight from its
// bytes; Trace.Record inverts it.
func recordGlobal(rec []byte, anchorTB uint64) uint64 {
	g := binary.LittleEndian.Uint64(rec[5:13])
	if rec[4]&event.FlagDecrTime != 0 {
		g += anchorTB
	}
	return g
}

// decodeFramed decodes the framed record at the front of rec.
func decodeFramed(rec []byte) event.Record {
	var r event.Record
	event.DecodeNext(&r, rec, nil)
	return r
}

// appendLiveAnchor appends the clock anchor an in-band LiveAnchor record
// — the framed record at the front of rec, whose three arguments framing
// checked — carries; any other record is ignored.
func appendLiveAnchor(anchors *[]traceio.Anchor, rec []byte) {
	if recordID(rec) == event.LiveAnchor {
		r := decodeFramed(rec)
		*anchors = append(*anchors, traceio.Anchor{
			SPE: int(r.Args[0]), Timebase: r.Args[1], Loaded: uint32(r.Args[2]), Program: r.Str,
		})
	}
}

// stringDef is one interned string observed while placing a chunk.
type stringDef struct {
	ref uint64
	s   string
}

// chunkStream is one framed chunk ready for the merge: its encoded
// records (data; the image's own bytes on the batch path, a copy on the
// streaming one), each record's offset in data in stream order, the
// timebase tick its decrementer stamps count from, and the run every
// record belongs to (-1 for PPE chunks). Four bytes per record instead
// of a decoded event.Record: the merge reads each record's Global time
// from its own bytes and decodes it once, straight into its column row.
type chunkStream struct {
	data     []byte
	offs     []uint32
	anchorTB uint64
	run      int32
}

// global returns the Global time of the stream's j-th record.
func (s *chunkStream) global(j int) uint64 { return recordGlobal(s.data[s.offs[j]:], s.anchorTB) }

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

// fromFile runs the pipeline with a bounded number of decode workers. A
// chunk that does not frame or cannot be placed, cancellation and
// admission failures all stop the load with a typed error after every
// worker has been joined.
func fromFile(ctx context.Context, f *traceio.File, workers int, lim Limits) (*Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := admitChunks(f, lim); err != nil {
		return nil, err
	}
	if err := resolveLiveAnchors(ctx, f); err != nil {
		return nil, err
	}
	tr := newTrace(f)
	n := len(f.Chunks)
	if n == 0 {
		tr.finish(colstore.NewBuilder(0, 0).Done())
		return tr, nil
	}
	// decoded counts records cumulatively across workers so the combined
	// record/memory budget trips mid-decode, not after the fact.
	var decoded atomic.Int64
	budget := recordBudget(lim)

	results := make([]chunkResult, n)
	runParallel(workers, n, func(i int) {
		if ctx.Err() == nil {
			results[i] = frameChunk(ctx, f, i, lim, &decoded, budget)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Aggregate in chunk order so issues, string interning and the error
	// returned are deterministic and identical to the serial path. Panics
	// recovered in a worker become per-chunk issues (the chunk's records
	// are lost to the unwind); every other error fails the load.
	total, argWords := 0, 0
	streams := make([]chunkStream, n)
	for i := range results {
		r := &results[i]
		if r.err != nil {
			if !errors.Is(r.err, errDecodePanic) {
				return nil, r.err
			}
			tr.Issues = append(tr.Issues, Issue{"error", r.err.Error()})
			continue
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
	if err := mergeStreams(ctx, b, streams); err != nil {
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
func frameChunk(ctx context.Context, f *traceio.File, i int, lim Limits, decoded *atomic.Int64, budget int64) (res chunkResult) {
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
	if err != nil {
		return chunkResult{err: err}
	}
	if budget > 0 {
		if n := decoded.Add(int64(len(offs))); n > budget {
			res = chunkResult{err: fmt.Errorf("%w: decoded records %d exceed budget %d (MaxRecords/MaxDecodeBytes)",
				ErrLimitExceeded, n, budget)}
			return res
		}
	}
	if n < len(c.Data) {
		res.issues = append(res.issues,
			Issue{"warn", fmt.Sprintf("chunk for core %d truncated mid-record", c.Core)})
	}
	run, anchorTB, issue, err := resolveAnchor(&f.Meta, c.Core, c.AnchorIdx)
	if err != nil {
		return chunkResult{err: err}
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
// an index past the anchor table is an error that fails the load,
// because the chunk cannot be placed at all. (Salvage drops such a chunk
// itself, so a salvaged file never reaches this error.)
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
	placed   int    // records placed so far
	last     uint64 // Global time of the latest of them
	argWords int    // total argument words across them
	unsorted bool   // some record is earlier than its predecessor
	strings  []stringDef
}

// place resolves the records of offs not placed yet — offs locates the
// chunk's framed records in data and grows with it — collecting interned
// strings on the way. With live non-nil, in-band LiveAnchor records are
// appended to it: a live stream's anchor table grows as it is read.
func (p *placement) place(data []byte, offs []uint32, live *[]traceio.Anchor) {
	for j := p.placed; j < len(offs); j++ {
		rec := data[offs[j]:]
		g := recordGlobal(rec, p.anchorTB)
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
		if j > 0 && p.last > g {
			p.unsorted = true
		}
		p.last = g
	}
	p.placed = len(offs)
}

// stream hands the placed records to the merge, ascending in Global. The
// tracer writes every chunk in stamp order; one that is not — from a
// foreign writer, or written before the tracer did — is stable-sorted
// here, which preserves exact equivalence with a global stable sort.
// Only the offsets move; the records stay where they are.
func (p *placement) stream(data []byte, offs []uint32) chunkStream {
	if p.unsorted {
		slices.SortStableFunc(offs, func(a, b uint32) int {
			return cmp.Compare(recordGlobal(data[a:], p.anchorTB), recordGlobal(data[b:], p.anchorTB))
		})
	}
	return chunkStream{data: data, offs: offs, anchorTB: p.anchorTB, run: p.run}
}

// mergeCtxStride is how many merged events pass between context polls in
// the merge hot loop: cheap enough to be invisible, frequent enough that
// cancellation lands well inside the 100 ms budget even on
// multi-million-event traces.
const mergeCtxStride = 1 << 14

// mergeStreams merges per-chunk event streams, each ascending in Global,
// into the columnar builder through a tournament tree of losers: O(N log
// k) instead of the O(N log N) global sort, one match per tree level per
// record. Rows come out ascending in Global, ties in stream (chunk file)
// order: each stream carries a rank, its position, and a drained stream
// moves its rank past every live one, so it loses every match — even to a
// record stamped at the top tick. This is where each framed record is
// decoded, once, straight from its encoded bytes into its final column
// row (the transient per-chunk offset slices die here). The merge polls
// ctx every mergeCtxStride events and aborts with ctx.Err().
func mergeStreams(ctx context.Context, b *colstore.Builder, streams []chunkStream) error {
	k := len(streams)
	if k == 0 {
		return nil
	}
	pos := make([]int, k)    // each stream's next record
	key := make([]uint64, k) // its Global time while live
	rank := make([]int, k)   // its position, plus k once drained
	for i := range streams {
		rank[i] = i
		if len(streams[i].offs) == 0 {
			key[i], rank[i] = math.MaxUint64, k+i
		} else {
			key[i] = streams[i].global(0)
		}
	}
	beats := func(a, b int32) bool {
		return key[a] < key[b] || key[a] == key[b] && rank[a] < rank[b]
	}
	// Leaf i is node k+i, node n's parent is n/2, and loser[n] keeps the
	// stream that lost the match at inner node n; the winner of the root's
	// match is w. Built bottom-up over a scratch table of match winners.
	loser := make([]int32, k)
	win := make([]int32, 2*k)
	for i := range streams {
		win[k+i] = int32(i)
	}
	for n := k - 1; n > 0; n-- {
		a, c := win[2*n], win[2*n+1]
		if beats(c, a) {
			a, c = c, a
		}
		win[n], loser[n] = a, c
	}
	w := win[1]
	poll := mergeCtxStride
	for rank[w] < k {
		if poll--; poll <= 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			poll = mergeCtxStride
		}
		s := &streams[w]
		b.AppendEncoded(s.data[s.offs[pos[w]]:], key[w], s.run)
		if pos[w]++; pos[w] < len(s.offs) {
			key[w] = s.global(pos[w])
		} else {
			key[w], rank[w] = math.MaxUint64, rank[w]+k
		}
		// Replay the winner's path: at each node the stronger of it and
		// the node's loser goes on up.
		for n := (int(w) + k) / 2; n > 0; n /= 2 {
			if l := loser[n]; beats(l, w) {
				loser[n], w = w, l
			}
		}
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

// Record materializes row i as the record it was loaded from, raw
// stamp included: the store keeps Global, and a decrementer stamp is
// Global less its run's anchor tick (colstore.Store.Record).
func (tr *Trace) Record(i int) event.Record {
	var anchorTB uint64
	if r := tr.col.Run[i]; r >= 0 {
		anchorTB = tr.Meta.Anchors[r].Timebase
	}
	return tr.col.Record(i, anchorTB)
}

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
