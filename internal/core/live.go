package core

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// liveWriter mirrors the trace onto a second sink while the run is still
// executing: the header and metadata go out up front, every completed
// flush DMA becomes an SPE chunk, and the PPE buffer is drained as
// incremental PPE chunks. The result is a well-formed PDT stream that an
// analyzer.StreamLoader (or a batch load, once the footer lands) can
// consume concurrently with the run — the paper's post-mortem pipeline
// turned into a tail.
//
// Because the live metadata is written before any SPE program has
// started, it carries no clock anchors; instead each run start emits a
// LiveAnchor record in-band and readers rebuild the anchor table from
// those. Drop counts are likewise unknown up front, so a live stream
// never carries Drops metadata — the sealed file Session.WriteTrace
// produces remains the authoritative artifact.
type liveWriter struct {
	tw *traceio.Writer
	// ppeMark is how much of Session.ppeBuf has already been streamed.
	ppeMark int
	err     error
}

// AttachLive mirrors the session's trace onto w while the simulation
// runs. Call it once, before Machine.Run; it does not install the
// instrumentation wrappers (call Attach as usual). The stream stays open
// until CloseLive seals it with a footer; if the process dies first the
// stream is exactly the truncated, footerless shape a crashed writer
// leaves behind, which the streaming loader tolerates.
func (s *Session) AttachLive(w io.Writer) error {
	if s.live != nil {
		return errors.New("core: live stream already attached")
	}
	mc := s.m.Config()
	tw, err := traceio.NewWriter(w, traceio.Header{
		Version:     traceio.Version,
		NumSPEs:     uint8(mc.NumSPEs),
		TimebaseDiv: mc.TimebaseDiv,
		ClockHz:     NominalClockHz,
	})
	if err != nil {
		return err
	}
	meta := traceio.Meta{
		Workload:     s.cfg.Workload,
		Groups:       s.cfg.GroupsString(),
		SPEEventCost: s.cfg.SPEEventCost,
		PPEEventCost: s.cfg.PPEEventCost,
	}
	keys := make([]string, 0, len(s.cfg.Params))
	for k := range s.cfg.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		meta.Params = append(meta.Params, traceio.Param{Name: k, Value: s.cfg.Params[k]})
	}
	if err := tw.WriteMeta(&meta); err != nil {
		return err
	}
	s.live = &liveWriter{tw: tw}
	return nil
}

// CloseLive drains the remaining PPE records and seals the live stream
// with a footer. Call it after Machine.Run returns cleanly; after a
// crash, simply don't — the truncated stream is then exactly what a
// dying writer would have left. Closing detaches the live sink.
func (s *Session) CloseLive() error {
	lw := s.live
	if lw == nil {
		return errors.New("core: no live stream attached")
	}
	s.livePPE()
	s.live = nil
	if lw.err != nil {
		return lw.err
	}
	return lw.tw.Close()
}

// livePPE streams the not-yet-sent tail of the PPE buffer as a PPE
// chunk. It runs before every SPE chunk so that StringDef records always
// precede the SPE records whose refs point at them, exactly as the
// sealed file's single up-front PPE chunk guarantees.
func (s *Session) livePPE() {
	lw := s.live
	if lw == nil || lw.err != nil {
		return
	}
	if lw.ppeMark >= len(s.ppeBuf) {
		return
	}
	lw.err = lw.tw.WriteChunk(traceio.Chunk{
		Core: event.CorePPE, AnchorIdx: traceio.NoAnchor,
		Data: s.ppeBuf[lw.ppeMark:],
	})
	lw.ppeMark = len(s.ppeBuf)
}

// liveAnchor publishes a run's clock anchor in-band. The record goes out
// in its own PPE chunk immediately, so the anchor table a streaming
// reader rebuilds is always complete before the first chunk that
// references the new index arrives. Anchor chunks are emitted in
// newSPERun order, which is exactly anchor-index order.
func (s *Session) liveAnchor(spe int, tb uint64, loaded uint32, name string) {
	lw := s.live
	if lw == nil || lw.err != nil {
		return
	}
	s.livePPE()
	if len(name) > event.MaxStrLen {
		name = name[:event.MaxStrLen]
	}
	rec := event.Record{
		ID:    event.LiveAnchor,
		Core:  event.CorePPE,
		Flags: event.FlagHasStr,
		Time:  s.m.Timebase(),
		Args:  []uint64{uint64(spe), tb, uint64(loaded)},
		Str:   name,
	}
	data, err := rec.AppendTo(nil)
	if err != nil {
		panic(fmt.Sprintf("core: live anchor encode: %v", err))
	}
	lw.err = lw.tw.WriteChunk(traceio.Chunk{
		Core: event.CorePPE, AnchorIdx: traceio.NoAnchor, Data: data,
	})
}

// liveFlush streams the landed-but-unsent part of a run's main-memory
// region as an SPE chunk. MFC commands execute strictly in order, so
// everything below the still-in-flight flush DMAs has been copied into
// main memory and is safe to publish; the in-flight tail waits for the
// next flush. Every boundary is a flush boundary, hence record-aligned
// (the decoder skips the zero padding inside).
func (s *Session) liveFlush(r *speRun) {
	lw := s.live
	if lw == nil || lw.err != nil {
		return
	}
	safe := r.regionUsed - r.inFlightBytes[0] - r.inFlightBytes[1]
	if safe <= r.liveMark {
		return
	}
	s.livePPE()
	lw.err = lw.tw.WriteChunk(traceio.Chunk{
		Core:      uint8(r.spe),
		AnchorIdx: r.anchorIdx,
		Data:      s.m.Mem()[r.regionEA+uint64(r.liveMark) : r.regionEA+uint64(safe)],
	})
	r.liveMark = safe
}
