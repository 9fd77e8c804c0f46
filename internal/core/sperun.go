package core

import (
	"fmt"

	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// maxFlushDMA is the largest single transfer a buffer flush issues (the
// architectural MFC limit).
const maxFlushDMA = 16 * 1024

// speRun is the tracing state of one SPE program execution: a record
// buffer resident in the top of the simulated local store, flushed to a
// per-run main-memory region by real simulated DMA, exactly as the paper's
// PDT flushed its local-store buffer. The flush DMA and the cycles spent
// waiting for it are the tracing perturbation the paper measures.
type speRun struct {
	s    *Session
	u    cell.SPU
	spe  int
	name string

	anchorIdx    uint16
	decrLoaded   uint32
	regionEA     uint64
	regionSize   int
	regionUsed   int
	lsBase       int // buffer base offset in local store
	halfSize     int // buffer (or half-buffer) size
	half         int // active half: 0 or 1 (always 0 when single-buffered)
	used         int // bytes used in the active half
	recsInHalf   uint64
	recsInRegion uint64  // records flushed since the last wrap
	inFlight     [2]bool // a flush DMA for this half is outstanding
	// inFlightBytes is the region footprint of each half's outstanding
	// flush; the live stream may only publish bytes below all of them.
	inFlightBytes [2]int
	// liveMark is the region offset already published to the live stream.
	liveMark    int
	finished    bool
	stoppedFull bool // main region exhausted; drop further records
}

// newSPERun allocates the main-memory region, records the clock anchor,
// and prepares the local-store buffer.
func (s *Session) newSPERun(u cell.SPU, name string) *speRun {
	spe := u.Index()
	tb, loaded := s.m.SPE(spe).DecrAnchor()
	run := &speRun{
		s:          s,
		u:          u,
		spe:        spe,
		name:       name,
		anchorIdx:  uint16(len(s.anchors)),
		decrLoaded: loaded,
		regionEA:   s.m.Alloc(s.cfg.MainBufferPerSPE, 128),
		regionSize: s.cfg.MainBufferPerSPE,
		lsBase:     len(u.LS()) - s.cfg.SPEBufferSize,
		halfSize:   s.cfg.SPEBufferSize,
	}
	if s.cfg.DoubleBuffered {
		run.halfSize = s.cfg.SPEBufferSize / 2
	}
	s.anchors = append(s.anchors, traceio.Anchor{
		SPE: spe, Timebase: tb, Loaded: loaded, Program: name,
	})
	s.runs = append(s.runs, run)
	s.liveAnchor(spe, tb, loaded, name)
	return run
}

// elapsed returns the decrementer ticks elapsed since the anchor.
func (r *speRun) elapsed() uint64 {
	return uint64(r.decrLoaded - r.u.ReadDecr())
}

// halfBase returns the local-store offset of the given half.
func (r *speRun) halfBase(half int) int { return r.lsBase + half*r.halfSize }

// emit records one event if its type is enabled, charging the
// instrumentation cost and flushing when the buffer fills.
func (r *speRun) emit(rec event.Record) {
	if !r.stamp(&rec) {
		return
	}
	if r.used+rec.EncodedSize() <= r.halfSize {
		r.put(rec)
		return
	}
	marker, flushed := r.flush(false)
	switch {
	case r.stoppedFull:
		r.s.drops[r.spe]++
	case !flushed:
		r.put(rec)
	case marker.Time == rec.Time:
		// The flush record is stamped after rec. On an equal stamp it
		// goes first, where it was stamped; otherwise after rec, so the
		// chunk stays in stamp order.
		r.put(marker)
		r.put(rec)
	default:
		r.put(rec)
		r.put(marker)
	}
}

// stamp charges the instrumentation cost of an enabled event and stamps
// it with its core and decrementer time. It reports false when the event
// is not recorded: disabled, outside the window, or dropped because the
// main region is full.
func (r *speRun) stamp(rec *event.Record) bool {
	if r.finished {
		panic(fmt.Sprintf("core: SPE %d emitted %s after program end", r.spe, rec.ID))
	}
	if !r.s.cfg.EventOn(rec.ID) {
		return false
	}
	if !r.s.inWindow(r.u.Now()) {
		return false
	}
	r.u.Compute(r.s.cfg.SPEEventCost)
	if r.stoppedFull {
		r.s.drops[r.spe]++
		return false
	}
	rec.Core = uint8(r.spe)
	rec.Flags |= event.FlagDecrTime
	rec.Time = r.elapsed()
	return true
}

// put writes a stamped record into the active half, which has room.
func (r *speRun) put(rec event.Record) {
	if rec.EncodedSize() > r.halfSize {
		panic("core: record larger than the SPE trace buffer half")
	}
	ls := r.u.LS()
	base := r.halfBase(r.half)
	buf, err := rec.AppendTo(ls[base+r.used : base+r.used : base+r.halfSize])
	if err != nil {
		panic(fmt.Sprintf("core: SPE record encode: %v", err))
	}
	r.used += len(buf)
	r.recsInHalf++
	r.s.speEvents++
}

// flushTag returns the MFC tag reserved for flushes of the given half.
func (r *speRun) flushTag(half int) int {
	if half == 0 {
		return r.s.cfg.FlushTagA
	}
	return r.s.cfg.FlushTagB
}

// flushPermitted consults the session's injected-failure hook before a
// flush DMA issues. On failure it retries with exponential backoff
// (busy-waiting on the SPU, as the real runtime would spin re-issuing the
// command) up to Config.FlushRetryMax attempts. It returns false when the
// whole retry budget failed; the caller then applies the drop policy.
func (r *speRun) flushPermitted() bool {
	hook := r.s.failFlush
	if hook == nil || !hook(r.spe, r.u.Now()) {
		return true
	}
	backoff := r.s.cfg.flushRetryBackoff()
	for attempt := 0; attempt < r.s.cfg.flushRetryMax(); attempt++ {
		r.u.Compute(backoff)
		backoff *= 2
		r.s.flushRetries++
		if !hook(r.spe, r.u.Now()) {
			return true
		}
	}
	return false
}

// flush DMAs the active half to the main-memory region. Single-buffered
// mode waits for the DMA; double-buffered mode issues it asynchronously
// and only waits when the target half is still in flight from last time.
// final forces a synchronous drain of everything outstanding. Otherwise
// a successful flush stamps its TRACE_FLUSH record and returns it with
// flushed true; the caller writes it into the fresh half.
func (r *speRun) flush(final bool) (marker event.Record, flushed bool) {
	start := r.u.Now()
	if r.used > 0 {
		// Pad to a legal DMA length (multiple of 16); zero bytes are
		// skipped by the chunk decoder.
		padded := (r.used + 15) / 16 * 16
		ls := r.u.LS()
		base := r.halfBase(r.half)
		for i := r.used; i < padded; i++ {
			ls[base+i] = 0
		}
		if r.regionUsed+padded > r.regionSize && r.s.cfg.WrapMain {
			// Wrap mode: restart the region, keeping only the records
			// written from here on (the most recent window). Everything
			// flushed before the wrap is discarded and counted.
			// A flush for the other half may still target the old
			// region tail; drain it before reusing the space.
			for h := 0; h < 2; h++ {
				if r.inFlight[h] {
					r.u.WaitTagAll(1 << uint(r.flushTag(h)))
					r.inFlight[h] = false
					r.inFlightBytes[h] = 0
				}
			}
			r.s.drops[r.spe] += r.recsInRegion
			r.recsInRegion = 0
			r.regionUsed = 0
			// The live stream restarts with the region: anything already
			// published before the wrap stays in the stream even though
			// the sealed file will drop it (live tails of wrap-mode runs
			// are a superset of the final trace).
			r.liveMark = 0
		}
		if r.regionUsed+padded > r.regionSize {
			// Main region exhausted: drop this bufferful.
			r.s.drops[r.spe] += r.recsInHalf
			r.stoppedFull = true
			r.used = 0
			r.recsInHalf = 0
		} else if !r.flushPermitted() {
			// Injected flush failure with the retry budget exhausted:
			// drop-newest — this bufferful is lost and counted exactly,
			// but the failure is transient, so tracing continues.
			r.s.drops[r.spe] += r.recsInHalf
			r.s.flushFailDrops += r.recsInHalf
			r.used = 0
			r.recsInHalf = 0
		} else {
			// A flush can exceed the 16 KiB architectural DMA limit
			// (large trace buffers): split it into maximal transfers on
			// the same tag.
			for off := 0; off < padded; off += maxFlushDMA {
				sz := padded - off
				if sz > maxFlushDMA {
					sz = maxFlushDMA
				}
				r.u.Put(base+off, r.regionEA+uint64(r.regionUsed+off), sz, r.flushTag(r.half))
			}
			r.regionUsed += padded
			r.inFlight[r.half] = true
			r.inFlightBytes[r.half] = padded
			r.s.flushes++
			r.s.flushBytes += uint64(padded)
			r.recsInRegion += r.recsInHalf
			flushedBytes := r.used
			r.used = 0
			r.recsInHalf = 0
			if r.s.cfg.DoubleBuffered && !final {
				// Switch halves; wait only if the next half's previous
				// flush has not completed.
				r.half = 1 - r.half
				if r.inFlight[r.half] {
					r.u.WaitTagAll(1 << uint(r.flushTag(r.half)))
					r.inFlight[r.half] = false
					r.inFlightBytes[r.half] = 0
				}
			} else {
				r.u.WaitTagAll(1 << uint(r.flushTag(r.half)))
				r.inFlight[r.half] = false
				r.inFlightBytes[r.half] = 0
			}
			if !final {
				cycles := r.u.Now() - start
				r.s.flushCycles += cycles
				// Record PDT's own overhead (into the fresh buffer), as
				// the paper's tool does. Skipped on the final drain:
				// there is no later flush to carry the record out.
				marker = event.Record{
					ID:   event.SPETraceFlush,
					Args: []uint64{uint64(flushedBytes), cycles},
				}
				flushed = r.stamp(&marker)
			}
		}
	}
	if final {
		// Drain any outstanding flush on the other half too.
		for h := 0; h < 2; h++ {
			if r.inFlight[h] {
				r.u.WaitTagAll(1 << uint(r.flushTag(h)))
				r.inFlight[h] = false
				r.inFlightBytes[h] = 0
			}
		}
		r.s.flushCycles += r.u.Now() - start
	}
	r.s.liveFlush(r)
	return marker, flushed
}
