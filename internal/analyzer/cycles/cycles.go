// Package cycles detects the repeating event patterns of iterative
// workloads — pipeline block loops, taskfarm rounds, stencil sweeps,
// streamed chunks — and segments each SPE program run into cycles with
// startup / steady-state / drain phase boundaries.
//
// Detection is per run and purely structural: the run's event-ID
// sequence (scanned from the columnar store's ID/Run columns) is
// segmented at every occurrence of a candidate anchor event — once with
// the anchor initiating each cycle and once with it terminating each
// cycle, since an event at the end of the loop body would otherwise
// leave a dangling truncated segment — and the candidate whose
// segmentation looks most like a cycle wins. "Looks like a cycle" is
// scored as the product of four terms:
//
//   - signature regularity: the mean Jaccard similarity between each
//     cycle's distinct-event-ID set and the majority set (IDs present
//     in at least half the cycles). Anchors that fire twice per true
//     iteration produce alternating signatures and score ~0.5.
//   - variety: the majority set's share of the run's distinct IDs. A
//     spin-poll anchor (SPE_ATOMIC_ENTER while waiting for a pipeline
//     producer) segments the wait into perfectly regular {enter, exit}
//     micro-cycles, but its majority set is 2 IDs out of the run's 5+.
//   - duration regularity: 1/(1+CV) of the per-cycle wall times.
//     Half-period anchors split an iteration into a stall part and a
//     compute part with very different durations.
//   - coverage: the fraction of the run's events inside the kept
//     cycles. A burst of identical setup events (e.g. the initial tile
//     loads of a stencil) segments perfectly but covers almost nothing.
//
// Boundary cycles whose signature deviates from the majority set are
// trimmed into the startup/drain phases before scoring, so anchors that
// also fire during load or writeback (DMA tag waits, typically) still
// converge on the configured iteration count.
//
// Overhead-group events (trace flushes) are excluded from anchors and
// signatures: they land wherever the trace buffer happens to fill, so
// two runs of the same workload would otherwise detect different
// patterns. Lifecycle events are likewise excluded (they occur once per
// run by construction).
package cycles

import (
	"math"
	"math/bits"
	"sort"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core/event"
)

// Options tunes detection.
type Options struct {
	// MinCycles is the minimum number of anchor occurrences for a
	// candidate segmentation (default 2). Trimming never drops the kept
	// count below it.
	MinCycles int
	// MinScore is the acceptance threshold for the best candidate's
	// score (default 0.4); below it the run reports no cycles.
	MinScore float64
}

func (o Options) withDefaults() Options {
	if o.MinCycles <= 0 {
		o.MinCycles = 2
	}
	if o.MinScore <= 0 {
		o.MinScore = 0.4
	}
	return o
}

// trimThreshold is the Jaccard similarity (vs the majority set) at or
// below which a boundary cycle is folded into the startup or drain
// phase: a taskfarm worker's poison-round or a stencil writeback shares
// about half its signature with a real iteration, a real iteration
// shares clearly more.
const trimThreshold = 0.5

// Stats summarizes one per-cycle metric across the cycles of a run.
type Stats struct {
	Min    uint64
	Max    uint64
	Avg    float64
	Stddev float64 // population stddev; exactly 0 when all values equal
}

// Cycle is one detected iteration of a run.
type Cycle struct {
	Index    int    // 0-based among the kept cycles
	StartSeq int    // first store row of the cycle
	EndSeq   int    // last store row of the cycle (inclusive)
	Start    uint64 // global ticks of the first event
	End      uint64 // global ticks of the last event
	Events   int    // rows in [StartSeq, EndSeq]
	Wall     uint64 // End - Start
	Busy     uint64 // compute-state ticks inside the cycle
	Stall    uint64 // dma+mbox+signal+sync stall ticks inside the cycle
	DMAWait  uint64 // tag-group (DMA) wait ticks inside the cycle
	Sig      uint64 // FNV-1a hash of the cycle's distinct event-ID set
}

// Phases are the run's detected phase boundaries. Startup covers run
// start to the first kept cycle (plus any trimmed leading cycles),
// drain covers everything after the last kept cycle.
type Phases struct {
	StartupTicks uint64
	SteadyTicks  uint64
	DrainTicks   uint64
	SteadyStart  uint64 // global ticks: first kept cycle's start
	SteadyEnd    uint64 // global ticks: last kept cycle's end
}

// Run is the detection result for one SPE program run.
type Run struct {
	Core     uint8
	Run      int
	Detected bool
	Anchor   event.ID // anchor event of the winning segmentation
	Score    float64  // winning candidate's score
	Raw      int      // anchor occurrences before boundary trimming
	Events   int      // events in the run
	Start    uint64   // global ticks of the run's first event
	End      uint64   // global ticks of the run's last event
	Cycles   []Cycle
	Wall     Stats
	Busy     Stats
	Stall    Stats
	DMAWait  Stats
	Phases   Phases
}

// Report is the whole-trace cycle detection result.
type Report struct {
	Workload    string
	Runs        []Run
	TotalCycles int
}

// Detected returns how many runs detected a cycle structure.
func (r *Report) Detected() int {
	n := 0
	for i := range r.Runs {
		if r.Runs[i].Detected {
			n++
		}
	}
	return n
}

// Detect analyzes every SPE program run of the trace. Runs are
// independent, so past the adaptive threshold they are detected on the
// shared pool; below it, and on a single P, the pool degenerates to a
// plain loop. A run costs a handful of buffers and one OR per row per
// candidate; on the benchmark's 80k-event trace with two processors the
// pool is 1.7x a plain loop (about 2.3 against 4.0 ms; docs/MODEL.md).
func Detect(tr *analyzer.Trace, opt Options) *Report {
	opt = opt.withDefaults()
	runs := make([]Run, len(tr.Meta.Anchors))
	workers := 1
	if tr.NumEvents() >= analyzer.ParallelThreshold() {
		workers = 0 // GOMAXPROCS
	}
	analyzer.RunParallel(workers, len(runs), func(r int) {
		runs[r] = detectRun(tr, r, opt)
	})
	rep := &Report{Workload: tr.Meta.Workload}
	for i := range runs {
		if runs[i].Events == 0 {
			continue // no rows for this run index
		}
		rep.Runs = append(rep.Runs, runs[i])
		rep.TotalCycles += len(runs[i].Cycles)
	}
	sort.SliceStable(rep.Runs, func(i, j int) bool {
		if rep.Runs[i].Core != rep.Runs[j].Core {
			return rep.Runs[i].Core < rep.Runs[j].Core
		}
		return rep.Runs[i].Run < rep.Runs[j].Run
	})
	return rep
}

// eligibleMask is the set of event IDs that may anchor a cycle or count in
// a cycle signature, one bit per ID: every table entry outside the
// overhead and lifecycle groups. The event table has 51 entries, so a set
// of IDs — a cycle's signature, a run's distinct IDs, the majority set —
// is one word, and the per-row work of detection is an OR.
var eligibleMask uint64

func init() {
	if event.NumIDs() > 64 {
		panic("cycles: event table outgrew the one-word signature set (eligibleMask, scratch.bit)")
	}
	for _, info := range event.All() {
		if info.Group != event.GroupOverhead && info.Group != event.GroupLifecycle {
			eligibleMask |= 1 << info.ID
		}
	}
}

// idBit returns id's bit of the signature set, 0 for an ineligible ID.
func idBit(id event.ID) uint64 { return eligibleMask & (1 << id) }

// detectRun runs anchor selection and segmentation on one run.
func detectRun(tr *analyzer.Trace, run int, opt Options) Run {
	seqs := tr.RunSeqs(run)
	if len(seqs) == 0 {
		return Run{Run: run}
	}
	s := tr.Columns()
	out := Run{
		Core:   s.Core[seqs[0]],
		Run:    run,
		Events: len(seqs),
		Start:  s.Global[seqs[0]],
		End:    s.Global[seqs[len(seqs)-1]],
	}

	// Occurrence positions (indexes into seqs) per eligible ID, as one
	// arena: count per ID, prefix-sum the counts into offsets, fill. A
	// row's bit is one-hot, so the fill pass reads the ID back out of it.
	sc := scratch{seqs: seqs, global: s.Global, bit: make([]uint64, len(seqs))}
	var off [65]int32 // ID i's positions are occ[off[i]:off[i+1]]
	for j, seq := range seqs {
		id := s.ID[seq]
		if b := idBit(id); b != 0 {
			sc.bit[j] = b
			sc.all |= b
			off[id+1]++
		}
	}
	most := int32(0)
	for id := 0; id < 64; id++ {
		most = max(most, off[id+1])
		off[id+1] += off[id]
	}
	occ := make([]int32, off[64])
	next := off
	for j, b := range sc.bit {
		if b != 0 {
			id := bits.TrailingZeros64(b)
			occ[next[id]] = int32(j)
			next[id]++
		}
	}
	sc.sigs = make([]uint64, most)
	sc.jacs = make([]float64, most)

	best := candidate{score: -1}
	for id := 0; id < 64; id++ { // ascending ID order
		p := occ[off[id]:off[id+1]]
		if len(p) == 0 || len(p) < opt.MinCycles {
			continue
		}
		for _, role := range [2]int{roleInitiator, roleTerminator} {
			c := sc.evaluate(event.ID(id), p, role)
			if c.better(&best) {
				best = c
			}
		}
	}
	if best.score < opt.MinScore || best.kept < 1 {
		return out
	}
	out.Detected = true
	out.Anchor = best.id
	out.Score = best.score
	out.Raw = best.raw
	out.Cycles = buildCycles(tr, run, &sc, best)
	out.Wall = statsOf(out.Cycles, func(c *Cycle) uint64 { return c.Wall })
	out.Busy = statsOf(out.Cycles, func(c *Cycle) uint64 { return c.Busy })
	out.Stall = statsOf(out.Cycles, func(c *Cycle) uint64 { return c.Stall })
	out.DMAWait = statsOf(out.Cycles, func(c *Cycle) uint64 { return c.DMAWait })

	first, last := &out.Cycles[0], &out.Cycles[len(out.Cycles)-1]
	out.Phases = Phases{
		StartupTicks: first.Start - out.Start,
		SteadyTicks:  last.End - first.Start,
		DrainTicks:   out.End - last.End,
		SteadyStart:  first.Start,
		SteadyEnd:    last.End,
	}
	return out
}

// candidate is one scored anchor segmentation.
type candidate struct {
	id       event.ID
	role     int // roleInitiator or roleTerminator
	score    float64
	raw      int     // anchor occurrences
	front    int     // cycles trimmed into startup
	kept     int     // cycles kept
	firstRow int32   // seqs index of the first kept cycle's first row
	pos      []int32 // anchor positions (indexes into seqs)
}

// better orders candidates: higher score, then more cycles (finer
// period), then initiator over terminator, then earlier start, then
// lower ID — all deterministic.
func (c *candidate) better(o *candidate) bool {
	if c.score != o.score {
		return c.score > o.score
	}
	if c.kept != o.kept {
		return c.kept > o.kept
	}
	if c.role != o.role {
		return c.role < o.role
	}
	if c.firstRow != o.firstRow {
		return c.firstRow < o.firstRow
	}
	return c.id < o.id
}

// scratch holds what candidate evaluation shares across the anchors of
// one run: the run's row list, the Global column, each row's signature
// bit, and two buffers sized to the largest occurrence count that every
// candidate reuses.
type scratch struct {
	seqs   []int32
	global []uint64  // the store's Global column, indexed by seqs values
	bit    []uint64  // idBit of the ID column value per seqs entry
	all    uint64    // the run's distinct eligible IDs
	sigs   []uint64  // per-cycle signatures of the candidate being scored
	jacs   []float64 // their similarity to the majority set, then the walls
}

// cycleSig is the set of distinct eligible IDs of rows [lo, hi] (indexes
// into seqs).
func (sc *scratch) cycleSig(lo, hi int32) uint64 {
	var sig uint64
	for _, b := range sc.bit[lo : hi+1] {
		sig |= b
	}
	return sig
}

// Anchor roles: an anchor either initiates its cycle (cycle i spans
// [P_i, P_{i+1})) or terminates it (cycle i spans (P_{i-1}, P_i]).
// Both roles are scored for every anchor: an event early in the loop
// body (a pipeline head's Get) segments cleanly as an initiator, an
// event at the end of the body (a tail stage's mailbox write) leaves a
// dangling truncated segment as an initiator but is exact as a
// terminator.
const (
	roleInitiator = iota
	roleTerminator
)

// segmentBounds returns cycle i's row range (indexes into the run's
// seqs, inclusive) for an anchor position list under the given role.
func segmentBounds(role int, pos []int32, i int, n int32) (lo, hi int32) {
	if role == roleInitiator {
		lo = pos[i]
		hi = n - 1
		if i < len(pos)-1 {
			hi = pos[i+1] - 1
		}
		return lo, hi
	}
	lo = 0
	if i > 0 {
		lo = pos[i-1] + 1
	}
	return lo, pos[i]
}

// evaluate scores one anchor candidate in one role: segment at every
// occurrence, trim deviant boundary cycles, and combine signature
// regularity, variety, duration regularity, and coverage.
func (sc *scratch) evaluate(id event.ID, pos []int32, role int) candidate {
	k := len(pos)
	n := int32(len(sc.seqs))

	// Majority set: IDs present in at least half the cycles (>= not >:
	// a stream chunk's prefetch is absent from the final chunks, landing
	// in exactly half the cycles of a 4-chunk partition) — but always at
	// least two, so a 2-occurrence candidate's majority is the sigs'
	// intersection rather than their union.
	sigs := sc.sigs[:k]
	var counts [64]int
	for i := range sigs {
		lo, hi := segmentBounds(role, pos, i, n)
		sigs[i] = sc.cycleSig(lo, hi)
		for sig := sigs[i]; sig != 0; sig &= sig - 1 {
			counts[bits.TrailingZeros64(sig)]++
		}
	}
	var maj uint64
	for id, c := range counts {
		if c >= 2 && c*2 >= k {
			maj |= 1 << id
		}
	}

	jacs := sc.jacs[:k]
	for i, sig := range sigs {
		jacs[i] = jaccard(sig, maj)
	}

	// Trim deviant boundary cycles into startup/drain. Trimming may go
	// below MinCycles (a taskfarm worker that claimed one task plus the
	// poison round genuinely has one cycle) but never to zero.
	front, back := 0, 0
	for front+back < k-1 && jacs[front] <= trimThreshold {
		front++
	}
	for front+back < k-1 && jacs[k-1-back] <= trimThreshold {
		back++
	}
	kept := k - front - back

	sum := 0.0
	for i := front; i < k-back; i++ {
		sum += jacs[i]
	}
	regularity := sum / float64(kept)

	// Duration regularity. Boundary cycles legitimately run long or
	// short (a pipeline's first block waits for the pipe to fill), so
	// with enough cycles the CV is taken over the middle ones only. The
	// similarities are summed, so the walls take their place.
	walls := jacs[front : k-back]
	for i := range walls {
		lo, hi := segmentBounds(role, pos, front+i, n)
		walls[i] = float64(sc.global[sc.seqs[hi]] - sc.global[sc.seqs[lo]])
	}
	if len(walls) >= 4 {
		walls = walls[1 : len(walls)-1]
	}
	mean := 0.0
	for _, w := range walls {
		mean += w
	}
	mean /= float64(len(walls))
	durFactor := 1.0
	if mean > 0 {
		varsum := 0.0
		for _, w := range walls {
			d := w - mean
			varsum += d * d
		}
		cv := math.Sqrt(varsum/float64(len(walls))) / mean
		durFactor = 1 / (1 + cv)
	}

	// Coverage: fraction of the run's events inside the kept cycles.
	loRow, _ := segmentBounds(role, pos, front, n)
	_, hiRow := segmentBounds(role, pos, front+kept-1, n)
	coverage := float64(hiRow-loRow+1) / float64(n)

	// Variety: the majority set's share of the run's distinct IDs.
	variety := 1.0
	if sc.all != 0 {
		variety = float64(bits.OnesCount64(maj)) / float64(bits.OnesCount64(sc.all))
	}

	return candidate{
		id:       id,
		role:     role,
		score:    regularity * variety * durFactor * coverage,
		raw:      k,
		front:    front,
		kept:     kept,
		firstRow: loRow,
		pos:      pos,
	}
}

// jaccard computes |a∩b| / |a∪b| over two ID sets; two empty sets are
// identical (similarity 1).
func jaccard(a, b uint64) float64 {
	if a|b == 0 {
		return 1
	}
	return float64(bits.OnesCount64(a&b)) / float64(bits.OnesCount64(a|b))
}

// sigHash is FNV-1a over the set's IDs in ascending order, two bytes per
// ID — the hash of the sorted distinct ID list the JSON report has always
// printed and both diff modes pair on.
func sigHash(sig uint64) uint64 {
	h := uint64(14695981039346656037)
	for ; sig != 0; sig &= sig - 1 {
		id := uint64(bits.TrailingZeros64(sig))
		h ^= id & 0xff
		h *= 1099511628211
		h ^= id >> 8
		h *= 1099511628211
	}
	return h
}

// buildCycles materializes the winning candidate's kept cycles with
// interval-derived busy/stall/DMA-wait time.
func buildCycles(tr *analyzer.Trace, run int, sc *scratch, best candidate) []Cycle {
	seqs := sc.seqs
	n := int32(len(seqs))
	out := make([]Cycle, best.kept)
	for i := 0; i < best.kept; i++ {
		lo, hi := segmentBounds(best.role, best.pos, best.front+i, n)
		start, end := sc.global[seqs[lo]], sc.global[seqs[hi]]
		out[i] = Cycle{
			Index:    i,
			StartSeq: int(seqs[lo]),
			EndSeq:   int(seqs[hi]),
			Start:    start,
			End:      end,
			Events:   int(hi - lo + 1),
			Wall:     end - start,
			Sig:      sigHash(sc.cycleSig(lo, hi)),
		}
	}

	// Clip the run's state intervals onto the cycles. Both lists are
	// time-ordered, so a single sweep suffices; an interval spanning a
	// cycle boundary contributes its overlap to each side.
	ivs := analyzer.RunIntervals(tr, run)
	p := 0
	for i := range out {
		c := &out[i]
		for p < len(ivs) && ivs[p].End <= c.Start {
			p++
		}
		for q := p; q < len(ivs) && ivs[q].Start < c.End; q++ {
			lo, hi := ivs[q].Start, ivs[q].End
			if lo < c.Start {
				lo = c.Start
			}
			if hi > c.End {
				hi = c.End
			}
			if hi <= lo {
				continue
			}
			d := hi - lo
			switch ivs[q].State {
			case analyzer.StateCompute:
				c.Busy += d
			case analyzer.StateStallDMA:
				c.Stall += d
				c.DMAWait += d
			case analyzer.StateStallMbox, analyzer.StateStallSignal, analyzer.StateStallSync:
				c.Stall += d
			}
		}
	}
	return out
}

// statsOf summarizes one metric across cycles. Stddev is exactly zero
// when every value is equal (byte-identical cycles must not report
// float noise).
func statsOf(cs []Cycle, get func(*Cycle) uint64) Stats {
	if len(cs) == 0 {
		return Stats{}
	}
	st := Stats{Min: get(&cs[0]), Max: get(&cs[0])}
	sum := uint64(0)
	for i := range cs {
		v := get(&cs[i])
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		sum += v
	}
	st.Avg = float64(sum) / float64(len(cs))
	if st.Min == st.Max {
		return st
	}
	varsum := 0.0
	for i := range cs {
		d := float64(get(&cs[i])) - st.Avg
		varsum += d * d
	}
	st.Stddev = math.Sqrt(varsum / float64(len(cs)))
	return st
}
