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
// The cross-core dependencies recovered from the trace are the rows of
// the channels table below: program launch, join, the outbound,
// interrupt and inbound mailboxes and signal notification. Atomic and
// barrier orderings are not modeled (the spin is visible as compute on
// the waiting core), which the report notes.
//
// The analysis builds two indexes — each event's predecessor on its core
// and the sender each receive waited for — and then walks back from the
// last event. One pass over the 2-byte ID column queues every channel
// row, and each queue pairs its receives with its sends; it touches
// arguments only on channel rows. The walk is sequential by
// nature, and the two indexes run inline too: on a worker pool they were
// slower than one plain pass (docs/MODEL.md, "Which kernels still shard").

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

// argN returns argument word n of row i.
func argN(s *colstore.Store, i, n int) uint64 { return s.Args[int(s.ArgOff[i])+n] }

// chanKey is the queue a send joins or a receive pops within a channel.
type chanKey [2]uint64

// Keys read off a channel row. The join and outbound-mailbox receives
// name their SPE in the low byte of the argument; the start and
// inbound-mailbox sends compare the whole word with the receiver's core.
func byCore(s *colstore.Store, i int) chanKey     { return chanKey{uint64(s.Core[i])} }
func byArg0(s *colstore.Store, i int) chanKey     { return chanKey{argN(s, i, 0)} }
func byArg0Low(s *colstore.Store, i int) chanKey  { return chanKey{uint64(uint8(argN(s, i, 0)))} }
func byArg01(s *colstore.Store, i int) chanKey    { return chanKey{argN(s, i, 0), argN(s, i, 1)} }
func byCoreArg0(s *colstore.Store, i int) chanKey { return chanKey{uint64(s.Core[i]), argN(s, i, 0)} }

// channel is one kind of cross-core dependency: a FIFO per key, whose
// k-th receive takes its k-th send whatever their merged order. The
// tracer charges a record's cost before it stamps it, so a receiver that
// blocked on a send can stamp its exit before the sender stamps its own.
// For the same reason a mailbox write's effect happens after its ENTER
// stamp, so the mailbox rows queue the write at its ENTER, which also
// dates the edge. A channel that carries a value names the argument that
// holds it on each side (-1 on a channel that carries none). A channel
// whose register ORs its writes together pairs by bits, not by position.
type channel struct {
	sends   []event.ID
	sendKey func(s *colstore.Store, i int) chanKey
	recvs   []event.ID
	recvKey func(s *colstore.Store, i int) chanKey
	sendVal int
	recvVal int
	or      bool
}

// channels is every cross-core dependency the critical path follows.
var channels = []channel{
	// program launch: the PPE names the SPE it starts
	{[]event.ID{event.PPESPEStart}, byArg0, []event.ID{event.SPEProgramStart}, byCore, -1, -1, false},
	// join: the PPE waits for the SPE it names
	{[]event.ID{event.SPEProgramEnd}, byCore, []event.ID{event.PPEWaitExit}, byArg0Low, -1, -1, false},
	// outbound mailbox, a FIFO per SPE
	{[]event.ID{event.SPEWriteOutMboxEnter}, byCore, []event.ID{event.PPEReadOutMboxExit}, byArg0Low, 0, 1, false},
	// outbound interrupt mailbox, a FIFO per SPE
	{[]event.ID{event.SPEWriteIntrMboxEnter}, byCore, []event.ID{event.PPEReadIntrMboxExit}, byArg0Low, 0, 1, false},
	// inbound mailbox, a FIFO per SPE
	{[]event.ID{event.PPEWriteInMboxEnter}, byArg0, []event.ID{event.SPEReadInMboxExit}, byCore, 1, 0, false},
	// signal notification, per SPE and register. The registers OR their
	// writes together, so a read returns the bits of every send since the
	// last read.
	{[]event.ID{event.PPEWriteSignal, event.SPESndsig}, byArg01, []event.ID{event.SPEReadSignalExit}, byCoreArg0, 2, 1, true},
}

// chanEnd is an event ID's side of its channel (ch nil for an ID on none).
type chanEnd struct {
	ch   *channel
	recv bool
}

// chanEndOf is indexed by event ID, like kindOf.
var chanEndOf = func() []chanEnd {
	ends := make([]chanEnd, event.NumIDs())
	for i := range channels {
		for _, id := range channels[i].sends {
			ends[id] = chanEnd{ch: &channels[i]}
		}
		for _, id := range channels[i].recvs {
			ends[id] = chanEnd{ch: &channels[i], recv: true}
		}
	}
	return ends
}()

// fifo is one queue of a channel: its send and receive rows, each in
// merged order.
type fifo struct {
	sends, recvs []int
}

// matchChannels returns, for every row, the row of the send it received
// from, or -1 for a row that is no receive, found no send, or whose send
// is not earlier in merged order (so the walk always moves back). The
// array is a spare: its caller gives it back to SpareInt32s.
func matchChannels(s *colstore.Store) []int32 {
	crossDep := SpareInt32s.Make(s.Len())
	type queue struct {
		ch  *channel
		key chanKey
	}
	queues := map[queue]fifo{}
	for i, id := range s.ID {
		crossDep[i] = -1
		e := chanEndOf[id]
		switch {
		case e.ch == nil:
		case e.recv:
			q := queue{e.ch, e.ch.recvKey(s, i)}
			f := queues[q]
			f.recvs = append(f.recvs, i)
			queues[q] = f
		default:
			q := queue{e.ch, e.ch.sendKey(s, i)}
			f := queues[q]
			f.sends = append(f.sends, i)
			queues[q] = f
		}
	}
	for q, f := range queues {
		q.ch.pair(s, f, crossDep)
	}
	return crossDep
}

// pair matches a queue's receives with its sends by position. On a
// register that ORs its writes, pairBits does instead. On a
// channel that carries a value, a receive whose value differs from the
// next send's resyncs on it: it takes the first later send carrying its
// value — the sends skipped lost their receive — or, when none does, no
// send at all, its own having been lost (a salvaged or cut trace). So
// one lost record costs one pair, not every pair after it.
func (ch *channel) pair(s *colstore.Store, f fifo, crossDep []int32) {
	if ch.or {
		ch.pairBits(s, f, crossDep)
		return
	}
	next := 0 // position of the first send not yet taken
	var at map[uint64][]int
	for _, r := range f.recvs {
		if next == len(f.sends) {
			return
		}
		k := next
		if ch.recvVal >= 0 {
			if v := argN(s, r, ch.recvVal); argN(s, f.sends[k], ch.sendVal) != v {
				if at == nil {
					// Built on the first mismatch only: damaged traces.
					at = map[uint64][]int{}
					for p, snd := range f.sends {
						w := argN(s, snd, ch.sendVal)
						at[w] = append(at[w], p)
					}
				}
				pos := at[v]
				j := sort.SearchInts(pos, next+1)
				if j == len(pos) {
					continue
				}
				k = pos[j]
			}
		}
		if snd := f.sends[k]; snd < r {
			crossDep[r] = int32(snd)
		}
		next = k + 1
	}
}

// pairBits matches a queue's receives on a register that ORs its writes.
// A sender stamps its send before the write lands, so every send a read
// returned is earlier in merged order. The read takes every pending
// earlier send whose bits it returned, and waited for the latest of them;
// a send whose bits it did not return stays pending for a later read.
func (ch *channel) pairBits(s *colstore.Store, f fifo, crossDep []int32) {
	var pending []int
	next := 0
	for _, r := range f.recvs {
		for ; next < len(f.sends) && f.sends[next] < r; next++ {
			pending = append(pending, f.sends[next])
		}
		v := argN(s, r, ch.recvVal)
		kept := pending[:0]
		for _, snd := range pending {
			if argN(s, snd, ch.sendVal)&^v == 0 {
				crossDep[r] = int32(snd) // pending is in merged order: the last is the latest
			} else {
				kept = append(kept, snd)
			}
		}
		pending = kept
	}
}

// ComputeCriticalPath runs the backward walk, reading each core's
// predecessors off the trace's per-core index.
func ComputeCriticalPath(tr *Trace) *CriticalPath {
	s := tr.col
	if s == nil {
		return ComputeCriticalPathSerial(tr)
	}
	// Every row is on one core's index, so every entry is written.
	prevOnCore := SpareInt32s.Make(s.Len())
	for _, seqs := range tr.coreSeq {
		prev := int32(-1)
		for _, seq := range seqs {
			prevOnCore[seq] = prev
			prev = seq
		}
	}
	return walkCriticalPath(tr, prevOnCore, matchChannels(s))
}

// ComputeCriticalPathSerial is the reference: it builds the per-core
// predecessor index from the row stream alone, then matches channels and
// walks as ComputeCriticalPath does.
func ComputeCriticalPathSerial(tr *Trace) *CriticalPath {
	n := tr.NumEvents()
	if n == 0 {
		return &CriticalPath{CoreTicks: map[uint8]uint64{}}
	}
	s := tr.col

	// prevOnCore[i] = index of the previous event on the same core.
	prevOnCore := SpareInt32s.Make(n)
	lastOnCore := map[uint8]int32{}
	for i, c := range s.Core {
		if j, ok := lastOnCore[c]; ok {
			prevOnCore[i] = j
		} else {
			prevOnCore[i] = -1
		}
		lastOnCore[c] = int32(i)
	}
	return walkCriticalPath(tr, prevOnCore, matchChannels(s))
}

// walkCriticalPath is the sequential backward walk over the prepared
// predecessor and dependency indexes, shared by both implementations.
// It gives both indexes back to SpareInt32s. The segments come out
// latest first, into a spare, and are copied out in chronological order
// at their exact length.
func walkCriticalPath(tr *Trace, prevOnCore, crossDep []int32) *CriticalPath {
	s := tr.col
	cp := &CriticalPath{CoreTicks: map[uint8]uint64{}}
	segs := spareSegments.Get(0)
	cur := s.Len() - 1
	for cur >= 0 {
		prev := int(prevOnCore[cur])
		cross := int(crossDep[cur])
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
			segs = append(segs, PathSegment{
				Core: s.Core[cur], Run: int(s.Run[cur]), Start: start, End: g,
				Via: s.ID[cur], Cross: isCross,
			})
			cp.CoreTicks[s.Core[cur]] += g - start
		}
		cur = next
	}
	SpareInt32s.Put(prevOnCore)
	SpareInt32s.Put(crossDep)
	if len(segs) > 0 {
		cp.Segments = make([]PathSegment, len(segs))
		for i, seg := range segs {
			cp.Segments[len(segs)-1-i] = seg
		}
	}
	spareSegments.Put(segs)
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
