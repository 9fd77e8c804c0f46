package analyzer

import (
	"fmt"
	"io"
	"sort"

	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/event"
)

// Critical-path analysis walks the chain of binding constraints backwards
// from the last event in the trace: at every step the predecessor is the
// dependency that completed last — the same-core predecessor event, or the
// cross-core sender that the event was waiting for. The result explains
// *why* the run took as long as it did, attributing wall time to cores.
//
// Cross-core dependencies recovered from the trace:
//
//   - PPE_SPE_START        -> SPE_PROGRAM_START       (program launch)
//   - SPE_PROGRAM_END      -> PPE_WAIT_EXIT           (join)
//   - SPE_WRITE_OUT_MBOX_EXIT -> PPE_READ_OUT_MBOX_EXIT (FIFO per SPE)
//   - PPE_WRITE_IN_MBOX_EXIT  -> SPE_READ_IN_MBOX_EXIT  (FIFO per SPE)
//   - PPE_WRITE_SIGNAL / SPE_SNDSIG -> SPE_READ_SIGNAL_EXIT (FIFO per SPE+reg)
//
// Atomic and barrier orderings are not modeled (the spin is visible as
// compute on the waiting core), which the report notes.
//
// The analysis has three stages: two full-stream preparation scans — the
// same-core predecessor index and the cross-core dependency match — and
// the backward walk. The walk is inherently sequential (each hop depends
// on the previous), but the preparation is not: the predecessor index is
// independent per core, and the five dependency channels (start, join,
// out-mbox, in-mbox, signal) touch disjoint event ids and therefore
// disjoint slots of the dependency array. All scans read the columnar
// store — the channel matchers walk the 2-byte ID column and touch
// arguments only on the rare matching rows. ComputeCriticalPath runs the
// scans concurrently on a bounded pool once the trace is past the
// adaptive-parallelism threshold; ComputeCriticalPathSerial is the
// single-threaded reference it is tested against.

// PathSegment is one hop of the critical path.
type PathSegment struct {
	Core  uint8 // core the time was spent on (receiver side)
	Run   int
	Start uint64 // timebase ticks
	End   uint64
	// Via names the event at the segment's end.
	Via event.ID
	// Cross marks a hop that jumped cores through a dependency.
	Cross bool
}

// Dur returns the segment length.
func (s PathSegment) Dur() uint64 { return s.End - s.Start }

// CriticalPath is the full analysis result.
type CriticalPath struct {
	// Segments from earliest to latest.
	Segments []PathSegment
	// CoreTicks attributes path time per core (event.CorePPE for PPE).
	CoreTicks map[uint8]uint64
	// Total is the covered span.
	Total uint64
}

// fifo is one dependency channel queue: pending sender event indices.
type fifo struct{ q []int }

func (f *fifo) push(i int) { f.q = append(f.q, i) }
func (f *fifo) pop() int {
	if len(f.q) == 0 {
		return -1
	}
	v := f.q[0]
	f.q = f.q[1:]
	return v
}

func ensureFifo[K comparable](m map[K]*fifo, k K) *fifo {
	f := m[k]
	if f == nil {
		f = &fifo{}
		m[k] = f
	}
	return f
}

// sigKey identifies one signal-notification channel: target SPE + register.
type sigKey struct{ spe, reg uint64 }

// arg0 returns event i's first argument word.
func arg0(s *colstore.Store, i int) uint64 { return s.Args[s.ArgOff[i]] }

// arg1 returns event i's second argument word.
func arg1(s *colstore.Store, i int) uint64 { return s.Args[s.ArgOff[i]+1] }

// scanStarts matches program launches: PPE_SPE_START -> SPE_PROGRAM_START.
func scanStarts(s *colstore.Store, crossDep []int) {
	starts := map[uint64]*fifo{}
	for i, id := range s.ID {
		switch id {
		case event.PPESPEStart:
			ensureFifo(starts, arg0(s, i)).push(i)
		case event.SPEProgramStart:
			crossDep[i] = ensureFifo(starts, uint64(s.Core[i])).pop()
		}
	}
}

// scanEnds matches joins: SPE_PROGRAM_END -> PPE_WAIT_EXIT.
func scanEnds(s *colstore.Store, crossDep []int) {
	ends := map[uint8]*fifo{}
	for i, id := range s.ID {
		switch id {
		case event.SPEProgramEnd:
			ensureFifo(ends, s.Core[i]).push(i)
		case event.PPEWaitExit:
			crossDep[i] = ensureFifo(ends, uint8(arg0(s, i))).pop()
		}
	}
}

// scanOutMbox matches the outbound mailbox FIFO per SPE.
func scanOutMbox(s *colstore.Store, crossDep []int) {
	outMbox := map[uint8]*fifo{}
	for i, id := range s.ID {
		switch id {
		case event.SPEWriteOutMboxExit, event.SPEWriteIntrMboxExit:
			ensureFifo(outMbox, s.Core[i]).push(i)
		case event.PPEReadOutMboxExit, event.PPEReadIntrMboxExit:
			crossDep[i] = ensureFifo(outMbox, uint8(arg0(s, i))).pop()
		}
	}
}

// scanInMbox matches the inbound mailbox FIFO per SPE.
func scanInMbox(s *colstore.Store, crossDep []int) {
	inMbox := map[uint64]*fifo{}
	for i, id := range s.ID {
		switch id {
		case event.PPEWriteInMboxExit:
			ensureFifo(inMbox, arg0(s, i)).push(i)
		case event.SPEReadInMboxExit:
			crossDep[i] = ensureFifo(inMbox, uint64(s.Core[i])).pop()
		}
	}
}

// scanSignals matches the signal-notification FIFO per SPE+register.
func scanSignals(s *colstore.Store, crossDep []int) {
	signals := map[sigKey]*fifo{}
	for i, id := range s.ID {
		switch id {
		case event.PPEWriteSignal, event.SPESndsig:
			ensureFifo(signals, sigKey{arg0(s, i), arg1(s, i)}).push(i)
		case event.SPEReadSignalExit:
			crossDep[i] = ensureFifo(signals, sigKey{uint64(s.Core[i]), arg0(s, i)}).pop()
		}
	}
}

// ComputeCriticalPath runs the backward walk. The sharded preparation
// (per-core predecessor blocks off the core index, per-channel ID-column
// scans) beats the serial reference's combined passes at every size, so
// it always runs; adaptive parallelism only decides whether the shards
// go to a worker pool or execute inline on the calling goroutine (small
// traces and single-processor hosts, where pool startup is pure loss).
func ComputeCriticalPath(tr *Trace) *CriticalPath {
	s := tr.col
	if s == nil {
		return ComputeCriticalPathSerial(tr)
	}
	n := s.Len()
	prevOnCore := make([]int, n)
	crossDep := make([]int, n)
	for i := range crossDep {
		crossDep[i] = -1
	}

	// One task per core for the predecessor index (the per-core index
	// blocks are stream-ordered rows of the store), plus one task per
	// dependency channel. Tasks write disjoint array slots.
	cores := tr.Cores()
	tasks := make([]func(), 0, len(cores)+5)
	for _, c := range cores {
		seqs := tr.coreSeq[c]
		tasks = append(tasks, func() {
			prev := -1
			for _, seq := range seqs {
				prevOnCore[seq] = prev
				prev = int(seq)
			}
		})
	}
	tasks = append(tasks,
		func() { scanStarts(s, crossDep) },
		func() { scanEnds(s, crossDep) },
		func() { scanOutMbox(s, crossDep) },
		func() { scanInMbox(s, crossDep) },
		func() { scanSignals(s, crossDep) },
	)
	workers := 0 // GOMAXPROCS
	if !tr.parallelWorthwhile() {
		workers = 1 // inline: same shards, no pool
	}
	runParallel(workers, len(tasks), func(i int) { tasks[i]() })
	return walkCriticalPath(tr, prevOnCore, crossDep)
}

// ComputeCriticalPathSerial is the single-threaded reference: one scan
// builds the per-core predecessor index, one scan matches all five
// dependency channels, then the shared backward walk runs.
func ComputeCriticalPathSerial(tr *Trace) *CriticalPath {
	n := tr.NumEvents()
	if n == 0 {
		return &CriticalPath{CoreTicks: map[uint8]uint64{}}
	}
	s := tr.col

	// prevOnCore[i] = index of the previous event on the same core.
	prevOnCore := make([]int, n)
	lastOnCore := map[uint8]int{}
	for i, c := range s.Core {
		if j, ok := lastOnCore[c]; ok {
			prevOnCore[i] = j
		} else {
			prevOnCore[i] = -1
		}
		lastOnCore[c] = i
	}

	// crossDep[i] = index of the cross-core sender event, or -1.
	crossDep := make([]int, n)
	for i := range crossDep {
		crossDep[i] = -1
	}
	outMbox := map[uint8]*fifo{}  // SPE -> pending out-mbox writes
	inMbox := map[uint64]*fifo{}  // spe arg -> pending PPE in-mbox writes
	signals := map[sigKey]*fifo{} // spe+reg -> pending signal sends
	starts := map[uint64]*fifo{}  // spe arg -> pending PPE starts
	ends := map[uint8]*fifo{}     // SPE -> pending program ends

	for i, id := range s.ID {
		switch id {
		case event.PPESPEStart:
			ensureFifo(starts, arg0(s, i)).push(i)
		case event.SPEProgramStart:
			crossDep[i] = ensureFifo(starts, uint64(s.Core[i])).pop()
		case event.SPEProgramEnd:
			ensureFifo(ends, s.Core[i]).push(i)
		case event.PPEWaitExit:
			crossDep[i] = ensureFifo(ends, uint8(arg0(s, i))).pop()
		case event.SPEWriteOutMboxExit, event.SPEWriteIntrMboxExit:
			ensureFifo(outMbox, s.Core[i]).push(i)
		case event.PPEReadOutMboxExit, event.PPEReadIntrMboxExit:
			crossDep[i] = ensureFifo(outMbox, uint8(arg0(s, i))).pop()
		case event.PPEWriteInMboxExit:
			ensureFifo(inMbox, arg0(s, i)).push(i)
		case event.SPEReadInMboxExit:
			crossDep[i] = ensureFifo(inMbox, uint64(s.Core[i])).pop()
		case event.PPEWriteSignal:
			ensureFifo(signals, sigKey{arg0(s, i), arg1(s, i)}).push(i)
		case event.SPESndsig:
			ensureFifo(signals, sigKey{arg0(s, i), arg1(s, i)}).push(i)
		case event.SPEReadSignalExit:
			crossDep[i] = ensureFifo(signals, sigKey{uint64(s.Core[i]), arg0(s, i)}).pop()
		}
	}
	return walkCriticalPath(tr, prevOnCore, crossDep)
}

// walkCriticalPath is the sequential backward walk over the prepared
// predecessor and dependency indexes, shared by both implementations.
func walkCriticalPath(tr *Trace, prevOnCore, crossDep []int) *CriticalPath {
	s := tr.col
	cp := &CriticalPath{CoreTicks: map[uint8]uint64{}}
	cur := s.Len() - 1
	for cur >= 0 {
		prev := prevOnCore[cur]
		cross := crossDep[cur]
		// The binding predecessor is the later of the two.
		next := prev
		isCross := false
		if cross >= 0 && (prev < 0 || s.Global[cross] > s.Global[prev]) {
			next = cross
			isCross = true
		}
		start := uint64(0)
		if next >= 0 {
			start = s.Global[next]
		} else if s.Len() > 0 {
			start = s.Global[0]
		}
		if g := s.Global[cur]; g > start {
			cp.Segments = append(cp.Segments, PathSegment{
				Core: s.Core[cur], Run: int(s.Run[cur]), Start: start, End: g,
				Via: s.ID[cur], Cross: isCross,
			})
			cp.CoreTicks[s.Core[cur]] += g - start
		}
		cur = next
	}
	// Reverse into chronological order.
	for i, j := 0, len(cp.Segments)-1; i < j; i, j = i+1, j-1 {
		cp.Segments[i], cp.Segments[j] = cp.Segments[j], cp.Segments[i]
	}
	for _, t := range cp.CoreTicks {
		cp.Total += t
	}
	return cp
}

// WriteCriticalPathFrom renders a computed critical path: per-core
// attribution and the topN largest segments.
func WriteCriticalPathFrom(cp *CriticalPath, w io.Writer, topN int) {
	if cp.Total == 0 {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	fmt.Fprintf(w, "critical path: %d timebase ticks across %d segments\n", cp.Total, len(cp.Segments))
	fmt.Fprintln(w, "note: atomic/barrier orderings appear as compute on the waiting core")
	cores := make([]int, 0, len(cp.CoreTicks))
	for c := range cp.CoreTicks {
		cores = append(cores, int(c))
	}
	sort.Ints(cores)
	for _, c := range cores {
		name := event.CoreName(uint8(c))
		t := cp.CoreTicks[uint8(c)]
		fmt.Fprintf(w, "  %-6s %10d ticks (%.1f%%)\n", name, t, 100*float64(t)/float64(cp.Total))
	}
	segs := append([]PathSegment(nil), cp.Segments...)
	sort.Slice(segs, func(i, j int) bool { return segs[i].Dur() > segs[j].Dur() })
	if topN > len(segs) {
		topN = len(segs)
	}
	fmt.Fprintf(w, "largest segments:\n")
	for _, s := range segs[:topN] {
		name := event.CoreName(s.Core)
		kind := "local"
		if s.Cross {
			kind = "cross"
		}
		fmt.Fprintf(w, "  %-6s [%d,%d) %8d ticks %-5s ending at %s\n",
			name, s.Start, s.End, s.Dur(), kind, s.Via)
	}
}
