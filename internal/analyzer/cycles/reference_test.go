package cycles

// The detector as it stood before event IDs became array indexes — map
// stamps, a sorted []event.ID per cycle, map[event.ID][]int32 occurrence
// lists — kept verbatim (renamed ref…) as an oracle that is not the
// implementation. TestDetectMatchesReference (reference_match_test.go)
// holds detectRun DeepEqual to it, Score and every Cycle.Sig included.
// It shares only what the rewrite did not touch: Options, segmentBounds,
// statsOf and the result types.

import (
	"math"
	"sort"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/event"
)

// DetectRun and RefDetectRun hand the two detectors to the external test
// package, which can build workload traces (harness imports this package,
// so an internal test cannot). Options get their defaults as in Detect.
func DetectRun(tr *analyzer.Trace, run int, opt Options) Run {
	return detectRun(tr, run, opt.withDefaults())
}

func RefDetectRun(tr *analyzer.Trace, run int, opt Options) Run {
	return refDetectRun(tr, run, opt.withDefaults())
}

// refEligible reports whether an event ID may anchor a cycle or count in a
// cycle signature.
func refEligible(id event.ID) bool {
	info, ok := event.Lookup(id)
	return ok && info.Group != event.GroupOverhead && info.Group != event.GroupLifecycle
}

// refDetectRun runs anchor selection and segmentation on one run.
func refDetectRun(tr *analyzer.Trace, run int, opt Options) Run {
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

	// Occurrence positions (indexes into seqs) per refEligible ID.
	occ := make(map[event.ID][]int32)
	ids := make([]event.ID, 0, 16)
	for j, seq := range seqs {
		id := s.ID[seq]
		if !refEligible(id) {
			continue
		}
		if _, seen := occ[id]; !seen {
			ids = append(ids, id)
		}
		occ[id] = append(occ[id], int32(j))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	best := refCandidate{score: -1}
	sc := refNewScratch(seqs, s)
	sc.distinct = len(ids)
	for _, id := range ids {
		p := occ[id]
		if len(p) < opt.MinCycles {
			continue
		}
		for _, role := range [2]int{roleInitiator, roleTerminator} {
			c := sc.evaluate(id, p, role, opt)
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
	out.Cycles = refBuildCycles(tr, run, seqs, best)
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

// refCandidate is one scored anchor segmentation.
type refCandidate struct {
	id       event.ID
	role     int // roleInitiator or roleTerminator
	score    float64
	raw      int     // anchor occurrences
	front    int     // cycles trimmed into startup
	kept     int     // cycles kept
	firstRow int32   // seqs index of the first kept cycle's first row
	pos      []int32 // anchor positions (indexes into seqs)
	sigs     []uint64
}

// better orders candidates: higher score, then more cycles (finer
// period), then initiator over terminator, then earlier start, then
// lower ID — all deterministic.
func (c *refCandidate) better(o *refCandidate) bool {
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

// refScratch holds the per-run buffers candidate evaluation reuses across
// anchors: the run's row list, the columns, and a generation-stamped
// set for collecting distinct IDs per cycle without reallocating.
type refScratch struct {
	seqs     []int32
	ids      []event.ID // ID column value per seqs entry
	global   []uint64   // Global column value per seqs entry
	distinct int        // distinct refEligible IDs in the run
	stamp    map[event.ID]int
	gen      int
	sig      []event.ID // scratch for the current cycle's signature
}

func refNewScratch(seqs []int32, s *colstore.Store) *refScratch {
	sc := &refScratch{
		seqs:   seqs,
		ids:    make([]event.ID, len(seqs)),
		global: make([]uint64, len(seqs)),
		stamp:  make(map[event.ID]int),
	}
	for j, seq := range seqs {
		sc.ids[j] = s.ID[seq]
		sc.global[j] = s.Global[seq]
	}
	return sc
}

// cycleSig collects the sorted distinct refEligible IDs of rows [lo, hi]
// (indexes into seqs). The returned slice is a copy.
func (sc *refScratch) cycleSig(lo, hi int32) []event.ID {
	sc.gen++
	sc.sig = sc.sig[:0]
	for j := lo; j <= hi; j++ {
		id := sc.ids[j]
		if sc.stamp[id] == sc.gen {
			continue
		}
		sc.stamp[id] = sc.gen
		if refEligible(id) {
			sc.sig = append(sc.sig, id)
		}
	}
	out := make([]event.ID, len(sc.sig))
	copy(out, sc.sig)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// evaluate scores one anchor refCandidate in one role: segment at every
// occurrence, trim deviant boundary cycles, and combine signature
// regularity, variety, duration regularity, and coverage.
func (sc *refScratch) evaluate(id event.ID, pos []int32, role int, opt Options) refCandidate {
	k := len(pos)
	n := int32(len(sc.seqs))
	sigs := make([][]event.ID, k)
	for i := 0; i < k; i++ {
		lo, hi := segmentBounds(role, pos, i, n)
		sigs[i] = sc.cycleSig(lo, hi)
	}

	// Majority set: IDs present in at least half the cycles (>= not >:
	// a stream chunk's prefetch is absent from the final chunks, landing
	// in exactly half the cycles of a 4-chunk partition) — but always at
	// least two, so a 2-occurrence refCandidate's majority is the sigs'
	// intersection rather than their union.
	counts := make(map[event.ID]int)
	for _, sig := range sigs {
		for _, id := range sig {
			counts[id]++
		}
	}
	var maj []event.ID
	for id, c := range counts {
		if c >= 2 && c*2 >= k {
			maj = append(maj, id)
		}
	}
	sort.Slice(maj, func(i, j int) bool { return maj[i] < maj[j] })

	jacs := make([]float64, k)
	for i, sig := range sigs {
		jacs[i] = refJaccard(sig, maj)
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
	// with enough cycles the CV is taken over the middle ones only.
	walls := make([]float64, 0, kept)
	for i := front; i < k-back; i++ {
		lo, hi := segmentBounds(role, pos, i, n)
		walls = append(walls, float64(sc.global[hi]-sc.global[lo]))
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
	if sc.distinct > 0 {
		variety = float64(len(maj)) / float64(sc.distinct)
	}

	hashes := make([]uint64, k)
	for i, sig := range sigs {
		hashes[i] = refSigHash(sig)
	}
	return refCandidate{
		id:       id,
		role:     role,
		score:    regularity * variety * durFactor * coverage,
		raw:      k,
		front:    front,
		kept:     kept,
		firstRow: loRow,
		pos:      pos,
		sigs:     hashes,
	}
}

// refJaccard computes |a∩b| / |a∪b| over two sorted ID slices; two empty
// sets are identical (similarity 1).
func refJaccard(a, b []event.ID) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// refSigHash is FNV-1a over the sorted distinct ID set.
func refSigHash(sig []event.ID) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range sig {
		h ^= uint64(id) & 0xff
		h *= 1099511628211
		h ^= uint64(id) >> 8
		h *= 1099511628211
	}
	return h
}

// refBuildCycles materializes the winning candidate's kept cycles with
// interval-derived busy/stall/DMA-wait time.
func refBuildCycles(tr *analyzer.Trace, run int, seqs []int32, best refCandidate) []Cycle {
	s := tr.Columns()
	n := int32(len(seqs))
	out := make([]Cycle, best.kept)
	for i := 0; i < best.kept; i++ {
		ci := best.front + i
		lo, hi := segmentBounds(best.role, best.pos, ci, n)
		start, end := s.Global[seqs[lo]], s.Global[seqs[hi]]
		out[i] = Cycle{
			Index:    i,
			StartSeq: int(seqs[lo]),
			EndSeq:   int(seqs[hi]),
			Start:    start,
			End:      end,
			Events:   int(hi - lo + 1),
			Wall:     end - start,
			Sig:      best.sigs[ci],
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
