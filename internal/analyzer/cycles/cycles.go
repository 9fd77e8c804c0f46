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
// Every factor is at most 1, and variety and coverage can be bounded from
// per-ID occurrence counts before any segmentation, so anchors are scored
// in descending order of that bound until no bound left can win.
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
	"cmp"
	"math"
	"math/bits"
	"slices"
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
// anchor scored; on the benchmark's 80k-event trace with two processors
// the pool is 1.8x a plain loop (about 2.2–2.4 against 4.1–4.4 ms;
// docs/MODEL.md).
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

	// Each row's signature bit and Global value, copied out contiguous,
	// and the occurrence positions (indexes into seqs) per eligible ID as
	// one arena: count per ID, prefix-sum the counts into offsets, fill. A
	// row's bit is one-hot, so the fill pass reads the ID back out of it.
	sc := scratch{seqs: seqs, global: make([]uint64, len(seqs)), bit: make([]uint64, len(seqs))}
	var off [65]int32 // ID i's positions are occ[off[i]:off[i+1]]
	for j, seq := range seqs {
		sc.global[j] = s.Global[seq]
		id := s.ID[seq]
		if b := idBit(id); b != 0 {
			sc.bit[j] = b
			sc.all |= b
			off[id+1]++
		}
	}
	occurs := off // occurrence count per ID, shifted by one
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
	sc.sigs = make([]uint64, most+1)

	// Score the anchors in descending order of their bound, and stop at
	// the first whose bound cannot reach the acceptance threshold or beat
	// the best score so far. better is a total order, so the order in
	// which candidates are scored cannot change the winner, and every
	// anchor left unscored scores strictly below the floor (see bound).
	var buf [64]anchor
	anchors := buf[:0]
	n := len(seqs)
	for id := 0; id < 64; id++ {
		p := occ[off[id]:off[id+1]]
		if len(p) == 0 || len(p) < opt.MinCycles {
			continue
		}
		anchors = append(anchors, anchor{event.ID(id), p, sc.bound(&occurs, p, n)})
	}
	slices.SortStableFunc(anchors, func(a, b anchor) int { return cmp.Compare(b.bound, a.bound) })
	best := candidate{score: -1}
	for _, a := range anchors {
		if a.bound < max(best.score, opt.MinScore) {
			break
		}
		sc.score(a.id, a.pos, &best)
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

// anchor is an eligible ID that occurs often enough to segment its run,
// with the bound on what either of its roles can score.
type anchor struct {
	id    event.ID
	pos   []int32 // occurrence positions (indexes into seqs)
	bound float64
}

// bound is the most an anchor occurring at pos can score in either role:
// variety_b × coverage_b. A cycle is a row range, the cycles of one
// segmentation are disjoint, and the majority set holds the IDs present in
// at least max(2, ⌈k/2⌉) cycles, so it holds only IDs that occur at least
// that often: variety_b counts those IDs. coverage_b is the coverage
// before trimming, which only shrinks it; it is the larger of the two
// roles' untrimmed spans. Regularity and duration regularity are each at
// most 1: a float sum of kept values each at most 1 is at most kept, and
// 1/(1+cv) with cv ≥ 0 is at most 1. Float multiplication is monotone in
// each non-negative factor, so the score ((reg·var)·dur)·cov computed in
// evaluate is at most var·cov ≤ var_b·cov_b, computed here with the same
// conversions and divisions.
func (sc *scratch) bound(occurs *[65]int32, pos []int32, n int) float64 {
	k := len(pos)
	need := int32(max(2, (k+1)/2))
	ids := 0
	for _, c := range occurs[1:] {
		if c >= need {
			ids++
		}
	}
	variety := float64(ids) / float64(bits.OnesCount64(sc.all))
	span := max(n-int(pos[0]), int(pos[k-1])+1)
	return variety * (float64(span) / float64(n))
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
// lower ID — all deterministic, and total: no two candidates tie.
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
// one run: the run's row list, each row's Global value and signature
// bit, and a signature buffer sized to the largest occurrence count that
// every anchor reuses.
type scratch struct {
	seqs   []int32
	global []uint64 // the store's Global value per seqs entry
	bit    []uint64 // idBit of the ID column value per seqs entry
	all    uint64   // the run's distinct eligible IDs
	sigs   []uint64 // the signatures of the anchor being scored
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

// wall is cycle i's wall time for an anchor under the given role.
func (sc *scratch) wall(role int, pos []int32, i int, n int32) float64 {
	lo, hi := segmentBounds(role, pos, i, n)
	return float64(sc.global[hi] - sc.global[lo])
}

// score evaluates one anchor in both roles from one signature pass and
// keeps the better of the two and best in best. A cycle between two
// occurrences holds one anchor row under either role, so it has the same
// ID set as an initiator's cycle [P_{i-1}, P_i) and as a terminator's
// (P_{i-1}, P_i]. Only the ends differ: the terminator's head [0, P_0]
// and the initiator's tail [P_{k-1}, n-1]. The signatures are laid out
// as sigs[0] the head, sigs[1..k-1] the shared cycles and sigs[k] the
// tail, and the shared cycles' ID counts are counted once.
func (sc *scratch) score(id event.ID, pos []int32, best *candidate) {
	k := len(pos)
	n := int32(len(sc.seqs))
	sigs := sc.sigs[:k+1]
	sigs[0] = sc.cycleSig(0, pos[0])
	var counts [64]int
	for i := 1; i < k; i++ {
		sigs[i] = sc.cycleSig(pos[i-1], pos[i]-1)
		for sig := sigs[i]; sig != 0; sig &= sig - 1 {
			counts[bits.TrailingZeros64(sig)]++
		}
	}
	sigs[k] = sc.cycleSig(pos[k-1], n-1)

	for _, role := range [2]int{roleInitiator, roleTerminator} {
		roleSigs, end := sigs[1:], sigs[k]
		if role == roleTerminator {
			roleSigs, end = sigs[:k], sigs[0]
		}
		// Majority set: IDs present in at least half the cycles (>= not
		// >: a stream chunk's prefetch is absent from the final chunks,
		// landing in exactly half the cycles of a 4-chunk partition) —
		// but always at least two, so a 2-occurrence candidate's majority
		// is the sigs' intersection rather than their union.
		var maj uint64
		for ids := sc.all; ids != 0; ids &= ids - 1 {
			b := bits.TrailingZeros64(ids)
			c := counts[b] + int(end>>b&1)
			if c >= 2 && c*2 >= k {
				maj |= 1 << b
			}
		}
		if c := sc.evaluate(id, pos, role, roleSigs, maj); c.better(best) {
			*best = c
		}
	}
}

// evaluate scores one anchor in one role from its cycles' signatures and
// majority set: trim deviant boundary cycles, and combine signature
// regularity, variety, duration regularity, and coverage.
func (sc *scratch) evaluate(id event.ID, pos []int32, role int, sigs []uint64, maj uint64) candidate {
	k := len(pos)
	n := int32(len(sc.seqs))

	// Trim deviant boundary cycles into startup/drain. Trimming may go
	// below MinCycles (a taskfarm worker that claimed one task plus the
	// poison round genuinely has one cycle) but never to zero.
	front, back := 0, 0
	for front+back < k-1 && jaccard(sigs[front], maj) <= trimThreshold {
		front++
	}
	for front+back < k-1 && jaccard(sigs[k-1-back], maj) <= trimThreshold {
		back++
	}
	kept := k - front - back

	// One pass over the kept cycles sums the similarities and the walls,
	// a second the walls' variance; each sum adds in cycle order. For
	// duration regularity, boundary cycles legitimately run long or short
	// (a pipeline's first block waits for the pipe to fill), so with
	// enough cycles the CV is taken over the middle ones only.
	lo, hi := front, k-back // the cycles whose walls count
	if kept >= 4 {
		lo, hi = lo+1, hi-1
	}
	sum, mean := 0.0, 0.0
	for i := front; i < k-back; i++ {
		sum += jaccard(sigs[i], maj)
		if i >= lo && i < hi {
			mean += sc.wall(role, pos, i, n)
		}
	}
	regularity := sum / float64(kept)
	walls := float64(hi - lo)
	mean /= walls
	durFactor := 1.0
	if mean > 0 {
		varsum := 0.0
		for i := lo; i < hi; i++ {
			d := sc.wall(role, pos, i, n) - mean
			varsum += d * d
		}
		cv := math.Sqrt(varsum/walls) / mean
		durFactor = 1 / (1 + cv)
	}

	// Coverage: fraction of the run's events inside the kept cycles.
	loRow, _ := segmentBounds(role, pos, front, n)
	_, hiRow := segmentBounds(role, pos, front+kept-1, n)
	coverage := float64(hiRow-loRow+1) / float64(n)

	// Variety: the majority set's share of the run's distinct IDs.
	variety := float64(bits.OnesCount64(maj)) / float64(bits.OnesCount64(sc.all))

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
		start, end := sc.global[lo], sc.global[hi]
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

	// Clip the run's state intervals onto the cycles as the run machine
	// emits them. Both are time-ordered, so one cursor sweeps the cycles;
	// an interval spanning a cycle boundary contributes its overlap to
	// each side.
	p := 0
	analyzer.WalkRun(tr, run, func(state analyzer.State, start, end uint64) {
		for p < len(out) && out[p].End <= start {
			p++
		}
		for q := p; q < len(out) && out[q].Start < end; q++ {
			c := &out[q]
			lo, hi := max(start, c.Start), min(end, c.End)
			if hi <= lo {
				continue
			}
			d := hi - lo
			switch state {
			case analyzer.StateCompute:
				c.Busy += d
			case analyzer.StateStallDMA:
				c.Stall += d
				c.DMAWait += d
			case analyzer.StateStallMbox, analyzer.StateStallSignal, analyzer.StateStallSync:
				c.Stall += d
			}
		}
	})
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
