package diff

// Per-cycle diffing. Whole-trace aggregates average a one-iteration
// regression away; cycle mode diffs iteration against iteration. Two
// pairing strategies (uplifter's match/align split):
//
//   - match: cycles pair by signature class, in order within each
//     class. Robust when a run's iterations were reordered, blind to
//     position.
//   - align: LCS positional alignment over the cycle signature
//     sequences. Unmatched cycles classify as insertions (B only — new
//     work) or deletions (A only — fused/removed work), the analogue of
//     uplifter's new-kernel/fused-kernel classes.
//
// Both sides' cycle reports come from the same detector, so a run pair
// aligns by (core, run) key; a run present on one side only contributes
// all its cycles as insertions or deletions.

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"github.com/celltrace/pdt/internal/analyzer/cycles"
	"github.com/celltrace/pdt/internal/core/event"
)

// Diff modes. The empty mode keeps per-cycle diffing off and the report
// shape identical to what pre-cycle callers expect.
const (
	ModeMatch = "match"
	ModeAlign = "align"
)

// ErrBadMode rejects an unknown Options.Mode.
var ErrBadMode = errors.New("diff: unknown mode (want \"match\" or \"align\")")

// ValidMode reports whether mode is one Diff accepts: empty, match or
// align.
func ValidMode(mode string) bool { return mode == "" || mode == ModeMatch || mode == ModeAlign }

// maxLCSCells caps the alignment DP table. Beyond it (pathological
// cycle counts) align degrades to match pairing and marks the run
// Approx rather than blowing memory.
const maxLCSCells = 1 << 20

// CycleMetrics is one cycle's metric tuple on one side of the diff.
type CycleMetrics struct {
	Start   uint64
	Events  int
	Wall    uint64
	Busy    uint64
	Stall   uint64
	DMAWait uint64
}

func metricsOf(c *cycles.Cycle) CycleMetrics {
	return CycleMetrics{
		Start: c.Start, Events: c.Events, Wall: c.Wall,
		Busy: c.Busy, Stall: c.Stall, DMAWait: c.DMAWait,
	}
}

// CyclePairDelta is one aligned cycle pair.
type CyclePairDelta struct {
	IndexA, IndexB int
	Sig            uint64 // shared signature under align; A's under match
	A, B           CycleMetrics
	// Flagged marks a pair whose wall, busy, stall or DMA-wait delta
	// passes the effect-size gate.
	Flagged bool
}

// WallDelta returns B.Wall − A.Wall.
func (p *CyclePairDelta) WallDelta() int64 { return int64(p.B.Wall) - int64(p.A.Wall) }

// CycleEdit is an unmatched cycle: a deletion (present only in A,
// e.g. work fused away) or an insertion (present only in B, new work).
type CycleEdit struct {
	Index int
	Sig   uint64
	M     CycleMetrics
}

// CycleRunDelta aligns one (core, run) pair's cycles.
type CycleRunDelta struct {
	Core                 uint8
	Run                  int
	DetectedA, DetectedB bool
	CyclesA, CyclesB     int
	// Approx marks a run whose align DP exceeded maxLCSCells and fell
	// back to match pairing.
	Approx   bool
	Pairs    []CyclePairDelta
	Deleted  []CycleEdit // cycles only in A
	Inserted []CycleEdit // cycles only in B
	// ShiftAt localizes a one-off delay: the index into Pairs where the
	// inter-trace timeline shift (B.Start − A.Start) jumps by at least
	// the gateTicks floor relative to the previous pair. A stall between
	// two iterations does not widen any cycle's wall — the detector
	// re-segments around the gap — but it does displace every later
	// cycle's start, and that edge is where the regression entered.
	// −1 when the shift stays steady; always −1 under match mode, whose
	// pairing is position-blind. ShiftTicks is the largest such jump
	// (signed; negated under argument swap).
	ShiftAt    int
	ShiftTicks int64
}

// CycleDiffReport is the per-cycle layer of a diff report.
type CycleDiffReport struct {
	Mode    string
	Runs    []CycleRunDelta
	Matched int
	// Inserted and Deleted are edit totals across runs.
	Inserted, Deleted int
}

// Zero reports whether the per-cycle layer found no difference: every
// run pairs completely, every pair is metric-identical and unflagged.
func (c *CycleDiffReport) Zero() bool {
	if c.Inserted != 0 || c.Deleted != 0 {
		return false
	}
	for i := range c.Runs {
		r := &c.Runs[i]
		if r.DetectedA != r.DetectedB || r.CyclesA != r.CyclesB ||
			len(r.Deleted) != 0 || len(r.Inserted) != 0 || r.ShiftAt >= 0 {
			return false
		}
		for j := range r.Pairs {
			p := &r.Pairs[j]
			if p.A != p.B || p.Flagged {
				return false
			}
		}
	}
	return true
}

// cycleDiff aligns two cycle reports under the selected mode.
func cycleDiff(a, b *cycles.Report, opt Options) *CycleDiffReport {
	out := &CycleDiffReport{Mode: opt.Mode}

	type key struct {
		core uint8
		run  int
	}
	ra := map[key]*cycles.Run{}
	rb := map[key]*cycles.Run{}
	var keys []key
	seen := map[key]bool{}
	for i := range a.Runs {
		k := key{a.Runs[i].Core, a.Runs[i].Run}
		ra[k] = &a.Runs[i]
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for i := range b.Runs {
		k := key{b.Runs[i].Core, b.Runs[i].Run}
		rb[k] = &b.Runs[i]
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].core != keys[j].core {
			return keys[i].core < keys[j].core
		}
		return keys[i].run < keys[j].run
	})

	for _, k := range keys {
		rd := CycleRunDelta{Core: k.core, Run: k.run, ShiftAt: -1}
		var ca, cb []cycles.Cycle
		if r := ra[k]; r != nil {
			rd.DetectedA = r.Detected
			ca = r.Cycles
		}
		if r := rb[k]; r != nil {
			rd.DetectedB = r.Detected
			cb = r.Cycles
		}
		rd.CyclesA, rd.CyclesB = len(ca), len(cb)

		switch {
		case opt.Mode == ModeAlign && len(ca)*len(cb) <= maxLCSCells:
			alignCycles(&rd, ca, cb)
		default:
			if opt.Mode == ModeAlign {
				rd.Approx = true
			}
			matchCycles(&rd, ca, cb)
		}
		if opt.Mode == ModeAlign && !rd.Approx {
			locateShift(&rd)
		}
		out.Matched += len(rd.Pairs)
		out.Inserted += len(rd.Inserted)
		out.Deleted += len(rd.Deleted)
		out.Runs = append(out.Runs, rd)
	}
	return out
}

// locateShift finds the largest gated jump in the pairwise timeline
// shift. Only positional (align) pairings make "consecutive pairs"
// meaningful, so match mode never sets it.
func locateShift(rd *CycleRunDelta) {
	if len(rd.Pairs) < 2 {
		return
	}
	prev := int64(rd.Pairs[0].B.Start) - int64(rd.Pairs[0].A.Start)
	for j := 1; j < len(rd.Pairs); j++ {
		cur := int64(rd.Pairs[j].B.Start) - int64(rd.Pairs[j].A.Start)
		jump := cur - prev
		prev = cur
		mag := jump
		if mag < 0 {
			mag = -mag
		}
		if uint64(mag) < gateTicks {
			continue
		}
		best := rd.ShiftTicks
		if best < 0 {
			best = -best
		}
		if rd.ShiftAt < 0 || mag > best {
			rd.ShiftAt, rd.ShiftTicks = j, jump
		}
	}
}

// pairOf builds one aligned pair and applies the effect-size gate.
func pairOf(ia, ib int, ca, cb *cycles.Cycle) CyclePairDelta {
	p := CyclePairDelta{
		IndexA: ia, IndexB: ib, Sig: ca.Sig,
		A: metricsOf(ca), B: metricsOf(cb),
	}
	p.Flagged = flagTicks(p.A.Wall, p.B.Wall) ||
		flagTicks(p.A.Busy, p.B.Busy) ||
		flagTicks(p.A.Stall, p.B.Stall) ||
		flagTicks(p.A.DMAWait, p.B.DMAWait)
	return p
}

// matchCycles pairs cycles by signature class, in order within each
// class; leftovers become edits.
func matchCycles(rd *CycleRunDelta, ca, cb []cycles.Cycle) {
	bySig := map[uint64][]int{}
	for i := range cb {
		bySig[cb[i].Sig] = append(bySig[cb[i].Sig], i)
	}
	usedB := make([]bool, len(cb))
	for i := range ca {
		q := bySig[ca[i].Sig]
		if len(q) == 0 {
			rd.Deleted = append(rd.Deleted, CycleEdit{Index: i, Sig: ca[i].Sig, M: metricsOf(&ca[i])})
			continue
		}
		j := q[0]
		bySig[ca[i].Sig] = q[1:]
		usedB[j] = true
		rd.Pairs = append(rd.Pairs, pairOf(i, j, &ca[i], &cb[j]))
	}
	for j := range cb {
		if !usedB[j] {
			rd.Inserted = append(rd.Inserted, CycleEdit{Index: j, Sig: cb[j].Sig, M: metricsOf(&cb[j])})
		}
	}
}

// alignCycles computes the LCS positional alignment of the two cycle
// signature sequences. Common prefix and suffix pair directly; only the
// differing middle goes through the DP. The matched pairs form a valid
// common subsequence: strictly increasing on both index axes with equal
// signatures.
func alignCycles(rd *CycleRunDelta, ca, cb []cycles.Cycle) {
	n, m := len(ca), len(cb)
	pre := 0
	for pre < n && pre < m && ca[pre].Sig == cb[pre].Sig {
		pre++
	}
	suf := 0
	for suf < n-pre && suf < m-pre && ca[n-1-suf].Sig == cb[m-1-suf].Sig {
		suf++
	}
	for i := 0; i < pre; i++ {
		rd.Pairs = append(rd.Pairs, pairOf(i, i, &ca[i], &cb[i]))
	}

	// DP over the middle [pre, n-suf) × [pre, m-suf).
	mn, mm := n-suf-pre, m-suf-pre
	if mn > 0 && mm > 0 {
		lcs := make([]int32, (mn+1)*(mm+1))
		at := func(i, j int) int32 { return lcs[i*(mm+1)+j] }
		for i := 1; i <= mn; i++ {
			for j := 1; j <= mm; j++ {
				if ca[pre+i-1].Sig == cb[pre+j-1].Sig {
					lcs[i*(mm+1)+j] = at(i-1, j-1) + 1
				} else if at(i-1, j) >= at(i, j-1) {
					lcs[i*(mm+1)+j] = at(i-1, j)
				} else {
					lcs[i*(mm+1)+j] = at(i, j-1)
				}
			}
		}
		// Backtrack; pairs come out in reverse order.
		var rev []CyclePairDelta
		i, j := mn, mm
		for i > 0 && j > 0 {
			switch {
			case ca[pre+i-1].Sig == cb[pre+j-1].Sig:
				rev = append(rev, pairOf(pre+i-1, pre+j-1, &ca[pre+i-1], &cb[pre+j-1]))
				i--
				j--
			case at(i-1, j) >= at(i, j-1):
				i--
			default:
				j--
			}
		}
		for k := len(rev) - 1; k >= 0; k-- {
			rd.Pairs = append(rd.Pairs, rev[k])
		}
	}

	for i := 0; i < suf; i++ {
		rd.Pairs = append(rd.Pairs, pairOf(n-suf+i, m-suf+i, &ca[n-suf+i], &cb[m-suf+i]))
	}

	// Everything unmatched classifies as an edit.
	matchedA := make([]bool, n)
	matchedB := make([]bool, m)
	for _, p := range rd.Pairs {
		matchedA[p.IndexA] = true
		matchedB[p.IndexB] = true
	}
	for i := 0; i < n; i++ {
		if !matchedA[i] {
			rd.Deleted = append(rd.Deleted, CycleEdit{Index: i, Sig: ca[i].Sig, M: metricsOf(&ca[i])})
		}
	}
	for j := 0; j < m; j++ {
		if !matchedB[j] {
			rd.Inserted = append(rd.Inserted, CycleEdit{Index: j, Sig: cb[j].Sig, M: metricsOf(&cb[j])})
		}
	}
}

// write renders the per-cycle section of the text report.
func (c *CycleDiffReport) write(w io.Writer) {
	fmt.Fprintf(w, "\nper-cycle diff (mode %s): %d matched, %d inserted, %d deleted\n",
		c.Mode, c.Matched, c.Inserted, c.Deleted)
	fmt.Fprintf(w, "%-7s %4s %8s %8s %8s %5s %5s\n",
		"core", "run", "cyc-A", "cyc-B", "matched", "ins", "del")
	for i := range c.Runs {
		r := &c.Runs[i]
		mark := " "
		if r.Approx {
			mark = "~" // DP cap hit; positional pairing approximated
		}
		fmt.Fprintf(w, "%-6s%s %4d %8d %8d %8d %5d %5d\n",
			event.CoreName(r.Core), mark, r.Run, r.CyclesA, r.CyclesB,
			len(r.Pairs), len(r.Inserted), len(r.Deleted))
	}

	for i := range c.Runs {
		r := &c.Runs[i]
		if r.ShiftAt < 0 {
			continue
		}
		p := &r.Pairs[r.ShiftAt]
		fmt.Fprintf(w, "timeline shift: %s run %d: %s ticks entering at cycle pair (%d,%d)\n",
			event.CoreName(r.Core), r.Run, signed(r.ShiftTicks), p.IndexA, p.IndexB)
	}

	flagged := 0
	for i := range c.Runs {
		flagged += countFlagged(c.Runs[i].Pairs)
	}
	fmt.Fprintf(w, "flagged cycle pairs (>=%d ticks and >=%.1f%% of the larger side): %d\n",
		gateTicks, 100*gateRel, flagged)
	if flagged > 0 {
		fmt.Fprintf(w, "%-7s %4s %6s %6s %10s %10s %10s %10s\n",
			"core", "run", "cyc-A", "cyc-B", "wall", "busy", "stall", "dma-wait")
		for i := range c.Runs {
			r := &c.Runs[i]
			for j := range r.Pairs {
				p := &r.Pairs[j]
				if !p.Flagged {
					continue
				}
				fmt.Fprintf(w, "%-7s %4d %6d %6d %10s %10s %10s %10s\n",
					event.CoreName(r.Core), r.Run, p.IndexA, p.IndexB,
					signed(p.WallDelta()),
					signed(int64(p.B.Busy)-int64(p.A.Busy)),
					signed(int64(p.B.Stall)-int64(p.A.Stall)),
					signed(int64(p.B.DMAWait)-int64(p.A.DMAWait)))
			}
		}
	}
}

func countFlagged(ps []CyclePairDelta) int {
	n := 0
	for i := range ps {
		if ps[i].Flagged {
			n++
		}
	}
	return n
}
