package core

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// NominalClockHz is the modeled processor frequency, used only for
// reporting (all simulation time is in cycles).
const NominalClockHz = 3_200_000_000

// Session is one tracing run: it instruments a machine, accumulates per-
// core buffers while the simulation runs, and serializes a trace file
// afterwards. Create it before Machine.RunMain and call Attach.
type Session struct {
	cfg Config
	m   *cell.Machine

	ppeBuf   []byte // encoded PPE records (host memory)
	ppeCount uint64

	strings map[string]uint64 // interned string -> ref

	runs    []*speRun
	anchors []traceio.Anchor
	drops   map[int]uint64

	// live, when non-nil, mirrors the trace onto a second sink as the
	// run executes; see AttachLive.
	live *liveWriter

	// nextPPECore assigns a distinct record core to every PPE thread so
	// their event streams stay individually ordered (main = CorePPE,
	// then counting down).
	nextPPECore uint8

	// failFlush, when non-nil, is consulted before every flush DMA issue
	// (fault injection); see InjectFlushFailures.
	failFlush func(spe int, now uint64) bool

	// lifetime stats, exposed for the overhead experiments
	speEvents      uint64
	flushes        uint64
	flushCycles    uint64
	flushBytes     uint64
	flushRetries   uint64
	flushFailDrops uint64
}

// NewSession validates cfg and binds a session to m.
func NewSession(m *cell.Machine, cfg Config) *Session {
	cfg.validate()
	if cfg.SPEBufferSize >= m.Config().LocalStore/2 {
		panic("core: SPE trace buffer does not fit the local store")
	}
	return &Session{
		cfg:         cfg,
		m:           m,
		strings:     map[string]uint64{},
		drops:       map[int]uint64{},
		nextPPECore: event.CorePPE,
	}
}

// Config returns the session configuration.
func (s *Session) Config() Config { return s.cfg }

// Attach installs the instrumented wrappers on the machine. Programs
// started after Attach are traced.
func (s *Session) Attach() {
	s.m.SPUWrap = func(u cell.SPU, name string) (cell.SPU, func(uint32)) {
		run := s.newSPERun(u, name)
		t := &TracedSPU{u: u, run: run}
		t.run.emit(event.Record{
			ID:   event.SPEProgramStart,
			Args: []uint64{s.intern(name)},
		})
		return t, t.finish
	}
	s.m.HostWrap = func(u cell.Host) cell.Host {
		if s.nextPPECore < event.CorePPEBase {
			panic("core: too many traced PPE threads")
		}
		core := s.nextPPECore
		s.nextPPECore--
		return &TracedHost{u: u, s: s, core: core}
	}
}

// Detach removes the wrappers; programs started afterwards run untraced.
func (s *Session) Detach() {
	s.m.SPUWrap = nil
	s.m.HostWrap = nil
}

// InjectFlushFailures installs a fault hook consulted before every flush
// DMA issue; returning true fails that attempt. The runtime retries with
// exponential backoff up to Config.FlushRetryMax, then drops the
// bufferful with exact per-SPE accounting. Install before the run starts.
func (s *Session) InjectFlushFailures(hook func(spe int, now uint64) bool) {
	s.failFlush = hook
}

// inWindow reports whether the given cycle falls inside the configured
// recording window (always true when no window is set).
func (s *Session) inWindow(cycle uint64) bool {
	if s.cfg.WindowStart == 0 && s.cfg.WindowEnd == 0 {
		return true
	}
	if cycle < s.cfg.WindowStart {
		return false
	}
	return s.cfg.WindowEnd == 0 || cycle < s.cfg.WindowEnd
}

// intern returns the ref of a string, emitting a StringDef record into the
// PPE buffer on first sight.
func (s *Session) intern(str string) uint64 {
	if len(str) > event.MaxStrLen {
		str = str[:event.MaxStrLen]
	}
	if ref, ok := s.strings[str]; ok {
		return ref
	}
	ref := uint64(len(s.strings) + 1)
	s.strings[str] = ref
	rec := event.Record{
		ID:    event.StringDef,
		Core:  event.CorePPE,
		Flags: event.FlagHasStr,
		Time:  s.m.Timebase(),
		Args:  []uint64{ref},
		Str:   str,
	}
	s.appendPPE(rec)
	return ref
}

// appendPPE encodes a record into the host buffer (no cost model; callers
// charge PPEEventCost).
func (s *Session) appendPPE(rec event.Record) {
	var err error
	s.ppeBuf, err = rec.AppendTo(s.ppeBuf)
	if err != nil {
		panic(fmt.Sprintf("core: PPE record encode: %v", err))
	}
	s.ppeCount++
}

// emitPPE charges the instrumentation cost on the host thread and records
// the event with the current timebase, tagged with the thread's core.
func (s *Session) emitPPE(h cell.Host, threadCore uint8, rec event.Record) {
	if !s.cfg.EventOn(rec.ID) {
		return
	}
	if !s.inWindow(h.Now()) {
		return
	}
	h.Compute(s.cfg.PPEEventCost)
	rec.Core = threadCore
	rec.Time = s.m.Timebase()
	s.appendPPE(rec)
}

// Stats reports tracing-side counters: SPE records captured, PPE records
// captured, flush count, cycles spent flushing (DMA wait included), bytes
// flushed, and records dropped to full main-memory regions.
type Stats struct {
	SPERecords  uint64
	PPERecords  uint64
	Flushes     uint64
	FlushCycles uint64
	FlushBytes  uint64
	Dropped     uint64
	// FlushRetries counts flush attempts re-issued after an injected DMA
	// failure; FlushFailDrops counts records dropped when the retry
	// budget ran out (a subset of Dropped).
	FlushRetries   uint64
	FlushFailDrops uint64
}

// Stats returns the session counters.
func (s *Session) Stats() Stats {
	var dropped uint64
	for _, d := range s.drops {
		dropped += d
	}
	return Stats{
		SPERecords:     s.speEvents,
		PPERecords:     s.ppeCount,
		Flushes:        s.flushes,
		FlushCycles:    s.flushCycles,
		FlushBytes:     s.flushBytes,
		Dropped:        dropped,
		FlushRetries:   s.flushRetries,
		FlushFailDrops: s.flushFailDrops,
	}
}

// WriteTrace serializes the trace. Call after Machine.Run returns; every
// SPE program must have finished (their final flushes happen at program
// end).
func (s *Session) WriteTrace(w io.Writer) error { return s.writeTrace(w, false) }

// WriteCrashTrace serializes a crash-consistent trace after an aborted
// run (Machine.Run returned sim.ErrStopped): unfinished programs are
// allowed, only the bytes their flushes actually landed in main memory
// are written — records still in local-store buffers or mid-DMA are lost,
// as they would be on real hardware — and no footer is emitted, exactly
// the shape a real crash leaves on disk. Parse flags such traces
// Truncated; traceio.Salvage and `pdt-ta doctor` recover them.
func (s *Session) WriteCrashTrace(w io.Writer) error { return s.writeTrace(w, true) }

// What traceio.Writer puts around the bytes it is handed (format v2):
// magic, core, anchor index, length and CRC before a chunk's data; magic
// and CRC as the footer. TestWriteTraceGrowsOnce pins both.
const (
	chunkHeaderBytes = 12
	footerBytes      = 8
)

func (s *Session) writeTrace(w io.Writer, crash bool) error {
	// SPE chunks are written straight out of main memory, which is valid
	// only while the machine is reachable (cell.Machine.Mem).
	defer runtime.KeepAlive(s.m)
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
		Anchors:      s.anchors,
	}
	// Deterministic metadata: iterate maps in sorted key order so two
	// serializations of the same session are byte-identical.
	spes := make([]int, 0, len(s.drops))
	for spe := range s.drops {
		spes = append(spes, spe)
	}
	sort.Ints(spes)
	for _, spe := range spes {
		if n := s.drops[spe]; n > 0 {
			meta.Drops = append(meta.Drops, traceio.Drop{SPE: spe, Count: n})
		}
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
	// Everything after the metadata has a known size. A destination that
	// can reserve it (a bytes.Buffer) does so once, here, instead of
	// doubling its way up to a megabyte-sized trace.
	if g, ok := w.(interface{ Grow(n int) }); ok {
		rest := 0
		if len(s.ppeBuf) > 0 {
			rest += chunkHeaderBytes + len(s.ppeBuf)
		}
		for _, run := range s.runs {
			rest += chunkHeaderBytes + run.regionUsed
		}
		if !crash {
			rest += footerBytes
		}
		g.Grow(rest)
	}
	// PPE chunk first: it carries the string table other records refer to.
	if len(s.ppeBuf) > 0 {
		err := tw.WriteChunk(traceio.Chunk{
			Core: event.CorePPE, AnchorIdx: traceio.NoAnchor, Data: s.ppeBuf,
		})
		if err != nil {
			return err
		}
	}
	for _, run := range s.runs {
		if !run.finished && !crash {
			return fmt.Errorf("core: SPE %d program %q still running at WriteTo", run.spe, run.name)
		}
		data := s.m.Mem()[run.regionEA : run.regionEA+uint64(run.regionUsed)]
		err := tw.WriteChunk(traceio.Chunk{
			Core: uint8(run.spe), AnchorIdx: run.anchorIdx, Data: data,
		})
		if err != nil {
			return err
		}
	}
	if crash {
		// No footer: the writer died before it could seal the file.
		return nil
	}
	return tw.Close()
}

// WriteFile serializes the trace to a file.
func (s *Session) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
