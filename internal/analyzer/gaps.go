package analyzer

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"github.com/celltrace/pdt/internal/analyzer/colstore"
)

// Gap is one unusually long stretch of an SPE run with no trace events —
// either genuine heavy compute or a stall in an untraced code path. The
// TA surfaces these so the user knows where the trace is blind; the fix
// on the paper's tool was exactly the user-event API (annotate the gap).
type Gap struct {
	Run   int
	Core  uint8
	Start uint64
	End   uint64
}

// Dur returns the gap length in timebase ticks.
func (g Gap) Dur() uint64 { return g.End - g.Start }

// gapsAcc is the FindGaps kernel: per run, the distance from each event
// to the previous one, folded one merged segment at a time.
type gapsAcc struct {
	minTicks uint64
	runs     []gapRun
}

type gapRun struct {
	seen bool
	last uint64 // global time of the run's latest event
	gaps []Gap
}

func (a *gapsAcc) fold(seg *colstore.Store) {
	for i, run := range seg.Run {
		if run < 0 {
			continue
		}
		for int(run) >= len(a.runs) {
			a.runs = append(a.runs, gapRun{})
		}
		r := &a.runs[run]
		g := seg.Global[i]
		if r.seen && g-r.last >= a.minTicks {
			r.gaps = append(r.gaps, Gap{Run: int(run), Core: seg.Core[i], Start: r.last, End: g})
		}
		r.seen = true
		r.last = g
	}
}

// result lists the gaps of the first nRuns runs (the anchored ones),
// longest first, ties in run order.
func (a *gapsAcc) result(nRuns int) []Gap {
	var out []Gap
	for run := 0; run < nRuns && run < len(a.runs); run++ {
		out = append(out, a.runs[run].gaps...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Dur() > out[j].Dur() })
	return out
}

// FindGaps returns event-free stretches of at least minTicks inside SPE
// runs, longest first.
func FindGaps(tr *Trace, minTicks uint64) []Gap {
	a := gapsAcc{minTicks: minTicks}
	a.fold(tr.segment())
	return a.result(len(tr.Meta.Anchors))
}

// SuggestGapThreshold proposes a threshold from the run statistics:
// twenty times the median inter-event distance (the median is robust to
// the very gaps being hunted), floored at 10 ticks.
func SuggestGapThreshold(tr *Trace) uint64 {
	n := 0
	for _, seqs := range tr.runSeq {
		n += len(seqs)
	}
	dists := make([]uint64, 0, n)
	s := tr.col
	for run := range tr.Meta.Anchors {
		seqs := tr.runSeqsOrScan(run)
		for i := 1; i < len(seqs); i++ {
			dists = append(dists, s.Global[seqs[i]]-s.Global[seqs[i-1]])
		}
	}
	if len(dists) == 0 {
		return 10
	}
	slices.Sort(dists)
	return max(dists[len(dists)/2]*20, 10)
}

// WriteGapsFound renders a computed gap report: the gaps FindGaps
// returned for minTicks, the topN longest listed.
func WriteGapsFound(minTicks uint64, gaps []Gap, topN int, w io.Writer) {
	fmt.Fprintf(w, "event-free stretches >= %d ticks: %d found\n", minTicks, len(gaps))
	if topN > len(gaps) {
		topN = len(gaps)
	}
	for _, g := range gaps[:topN] {
		fmt.Fprintf(w, "  SPE%-3d run %-3d [%d,%d) %10d ticks\n", g.Core, g.Run, g.Start, g.End, g.Dur())
	}
	if len(gaps) > 0 {
		fmt.Fprintln(w, "hint: annotate hot loops with core.User / core.UserLog to subdivide gaps")
	}
}
