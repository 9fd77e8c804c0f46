package analyzer

import (
	"fmt"

	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/event"
)

// State classifies what an SPE was doing during an interval.
type State int

const (
	// StateCompute is time between traced events: the SPU was running
	// application code (includes untraced library time).
	StateCompute State = iota
	// StateStallDMA is time inside a tag-group wait.
	StateStallDMA
	// StateStallMbox is time blocked on a mailbox access.
	StateStallMbox
	// StateStallSignal is time blocked reading a signal register.
	StateStallSignal
	// StateStallSync is time inside barrier/mutex/work-queue waits.
	StateStallSync
	// StateFlush is PDT's own trace-buffer flush time.
	StateFlush
	// StateHostWait is PPE time blocked waiting for an SPE program to
	// finish (PPE lane only).
	StateHostWait
	numStates
)

var stateNames = [numStates]string{"compute", "dma-wait", "mbox-wait", "signal-wait", "sync-wait", "trace-flush", "spe-wait"}

func (s State) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// States lists all states in order.
func States() []State {
	out := make([]State, numStates)
	for i := range out {
		out[i] = State(i)
	}
	return out
}

// Interval is a span of one SPE program run in a single state.
type Interval struct {
	Core  uint8
	Run   int
	State State
	Start uint64 // timebase ticks, global
	End   uint64
}

// Dur returns the interval length in timebase ticks.
func (iv Interval) Dur() uint64 { return iv.End - iv.Start }

// noStall fills the slots of a stall table whose event opens no stall. An
// open state is never noStall, so comparing a slot with one stays exact.
const noStall State = -1

// stallTable lays an Enter-event → state map out flat, indexed by event
// ID like kindOf: the run machine reads it once per record.
func stallTable(opens map[event.ID]State) []State {
	t := make([]State, event.NumIDs())
	for id := range t {
		t[id] = noStall
	}
	for id, st := range opens {
		t[id] = st
	}
	return t
}

// stallState holds the state each SPE Enter event opens.
var stallState = stallTable(map[event.ID]State{
	event.SPEWaitTagEnter:       StateStallDMA,
	event.SPEReadInMboxEnter:    StateStallMbox,
	event.SPEWriteOutMboxEnter:  StateStallMbox,
	event.SPEWriteIntrMboxEnter: StateStallMbox,
	event.SPEReadSignalEnter:    StateStallSignal,
	event.SyncBarrierEnter:      StateStallSync,
	event.SyncMutexEnter:        StateStallSync,
	event.SyncWQGetEnter:        StateStallSync,
	event.SPEAtomicEnter:        StateStallSync,
})

// runMachine is the state machine that classifies one SPE program run
// into compute, stall and flush time. It exists once: RunIntervals drives
// it appending Intervals, the summary accumulator drives it adding to
// per-state tick sums. Time not inside a stall or flush is compute.
type runMachine struct {
	cursor    uint64 // start of the stretch being classified
	open      bool   // inside a stall
	openState State
	openStart uint64
}

// emitFunc receives one closed, non-empty interval.
type emitFunc func(state State, start, end uint64)

func emitSpan(emit emitFunc, state State, start, end uint64) {
	if end > start {
		emit(state, start, end)
	}
}

// step advances the machine by row i of s, which must belong to the
// machine's run. It reads the ID and Global columns, and the arguments
// only at flush markers; cpt is the trace's cycles per timebase tick.
func (m *runMachine) step(s *colstore.Store, i int, cpt uint64, emit emitFunc) {
	id := s.ID[i]
	global := s.Global[i]
	switch {
	case kindOf[id] == event.KindEnter:
		if st := stallState[id]; st != noStall && !m.open {
			emitSpan(emit, StateCompute, m.cursor, global)
			m.open = true
			m.openState = st
			m.openStart = global
		}
	case kindOf[id] == event.KindExit:
		if m.open && stallState[pairOf[id]] == m.openState {
			emitSpan(emit, m.openState, m.openStart, global)
			m.open = false
			m.cursor = global
		}
	case id == event.SPETraceFlush:
		// Point event stamped at flush completion; its duration in
		// cycles is the second argument.
		ticks := s.Args[s.ArgOff[i]+1] / cpt
		start := global
		if ticks < global {
			start = global - ticks
		}
		if start < m.cursor {
			start = m.cursor // never overlap the previous interval
		}
		if !m.open {
			emitSpan(emit, StateCompute, m.cursor, start)
			emitSpan(emit, StateFlush, start, global)
			m.cursor = global
		}
	case id == event.SPEProgramEnd:
		if !m.open {
			emitSpan(emit, StateCompute, m.cursor, global)
			m.cursor = global
		}
	}
}

// finish closes a stall left open (truncated trace) at the run's last
// event time. The receiver is a copy, so finishing a run that is still
// growing does not disturb it.
func (m runMachine) finish(last uint64, emit emitFunc) {
	if m.open {
		emitSpan(emit, m.openState, m.openStart, last)
	}
}

// RunIntervals reconstructs the state intervals of one SPE program run
// (SPE_PROGRAM_START..SPE_PROGRAM_END) by walking the run's index block
// through the run state machine.
func RunIntervals(tr *Trace, run int) []Interval {
	seqs := tr.RunSeqs(run)
	if len(seqs) == 0 {
		return nil
	}
	s := tr.col
	core := s.Core[seqs[0]]
	var out []Interval
	emit := func(state State, start, end uint64) {
		out = append(out, Interval{Core: core, Run: run, State: state, Start: start, End: end})
	}
	m := runMachine{cursor: s.Global[seqs[0]]}
	cpt := tr.CyclesPerTick()
	for _, seq := range seqs {
		m.step(s, int(seq), cpt, emit)
	}
	m.finish(s.Global[seqs[len(seqs)-1]], emit)
	return out
}

// Intervals reconstructs state intervals for every SPE run in the trace.
// Each run's reconstruction is independent (RunIntervals only reads that
// run's event view), so the per-run scans execute concurrently on a
// bounded pool and are concatenated in run order — the exact output of
// IntervalsSerial.
func Intervals(tr *Trace) []Interval {
	n := len(tr.Meta.Anchors)
	if n < 2 || !tr.parallelWorthwhile() {
		return IntervalsSerial(tr)
	}
	parts := make([][]Interval, n)
	runParallel(0, n, func(run int) {
		parts[run] = RunIntervals(tr, run)
	})
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	out := make([]Interval, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// IntervalsSerial is the sequential reference for Intervals.
func IntervalsSerial(tr *Trace) []Interval {
	var out []Interval
	for run := range tr.Meta.Anchors {
		out = append(out, RunIntervals(tr, run)...)
	}
	return out
}

// ppeStallState holds the state each PPE Enter event opens.
var ppeStallState = stallTable(map[event.ID]State{
	event.PPEWaitEnter:         StateHostWait,
	event.PPEReadOutMboxEnter:  StateStallMbox,
	event.PPEReadIntrMboxEnter: StateStallMbox,
	event.PPEWriteInMboxEnter:  StateStallMbox,
	event.PPEWaitTagEnter:      StateStallDMA,
	event.PPEAtomicEnter:       StateStallSync,
})

// PPEIntervals reconstructs the host lanes — one per PPE thread (the
// main thread records as CorePPE, spawned threads count down), classified
// by the host's blocking calls. Returns nil when the trace has no PPE
// events. The interval Run field is -1 for the main thread, -2 for the
// first spawned thread, and so on. Each lane walks only its own thread's
// index block, which is microseconds of work, so the lanes run inline.
func PPEIntervals(tr *Trace) []Interval {
	var out []Interval
	for core := int(event.CorePPE); core >= int(event.CorePPEBase); core-- {
		out = append(out, ppeLaneIntervals(tr, uint8(core), -1-(int(event.CorePPE)-core))...)
	}
	return out
}

// ppeLaneIntervals builds the lane of one PPE thread from its own
// stream-ordered index block of the columnar store.
func ppeLaneIntervals(tr *Trace, core uint8, run int) []Interval {
	seqs := tr.coreSeq[core]
	if len(seqs) == 0 {
		return nil
	}
	s := tr.col
	var out []Interval
	var lastPPE uint64
	var open bool
	var openState State
	var openStart uint64
	cursor := s.Global[seqs[0]]
	emit := func(state State, start, end uint64) {
		if end > start {
			out = append(out, Interval{Core: core, Run: run, State: state, Start: start, End: end})
		}
	}
	for _, seq := range seqs {
		global := s.Global[seq]
		lastPPE = global
		id := s.ID[seq]
		switch kindOf[id] {
		case event.KindEnter:
			if st := ppeStallState[id]; st != noStall && !open {
				emit(StateCompute, cursor, global)
				open = true
				openState = st
				openStart = global
			}
		case event.KindExit:
			if open && ppeStallState[pairOf[id]] == openState {
				emit(openState, openStart, global)
				open = false
				cursor = global
			}
		}
	}
	if open {
		emit(openState, openStart, lastPPE) // truncated trace
	} else {
		emit(StateCompute, cursor, lastPPE)
	}
	return out
}
