package analyzer

import (
	"cmp"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/event"
)

// PairProfile aggregates all occurrences of one Enter/Exit event pair
// across the trace: the TA statistics view ("where does blocked time go,
// by API call").
type PairProfile struct {
	Enter event.ID
	Count int
	// Ticks is the duration distribution in timebase ticks.
	Ticks Histogram
	// Confidence is the lowest record-survival fraction among the cores
	// that contributed intervals to this pair (1.0 on clean traces); a
	// low value means the counts and totals understate reality.
	Confidence float64
}

// kindOf and pairOf are flat arrays indexed by event ID, replacing the
// metadata map lookup in the pair-matching hot loops: unknown ids keep
// the zero Kind (a point event) and are ignored, exactly like a failed
// Lookup.
var (
	kindOf []event.Kind
	pairOf []event.ID
)

func init() {
	n := int(event.NumIDs())
	kindOf = make([]event.Kind, n)
	pairOf = make([]event.ID, n)
	for id := event.ID(1); id < event.NumIDs(); id++ {
		if info, ok := event.Lookup(id); ok {
			kindOf[id] = info.Kind
			pairOf[id] = info.Pair
		}
	}
}

// pairAcc is one pair's running profile plus the set of cores that
// contributed intervals; the pair's confidence is resolved against that
// set when a result is taken.
type pairAcc struct {
	prof  PairProfile
	cores [4]uint64 // 256-bit contributing-core set
}

// profileAcc is the Profile kernel: Enter/Exit pair matching folded one
// merged segment at a time. Matching is per core and the per-pair sums
// commute, so folding a trace window by window gives exactly the result
// of folding it whole. Open enters live in per-core flat arrays indexed
// by event id (start+1, so 0 means "not open").
type profileAcc struct {
	open  [256][]uint64
	pairs map[event.ID]*pairAcc
}

func (a *profileAcc) fold(seg *colstore.Store) {
	if a.pairs == nil {
		a.pairs = map[event.ID]*pairAcc{}
	}
	for i, id := range seg.ID {
		if int(id) >= len(kindOf) {
			continue
		}
		switch kindOf[id] {
		case event.KindEnter:
			core := seg.Core[i]
			m := a.open[core]
			if m == nil {
				m = make([]uint64, len(kindOf))
				a.open[core] = m
			}
			m[id] = seg.Global[i] + 1
		case event.KindExit:
			core := seg.Core[i]
			m := a.open[core]
			if m == nil {
				break
			}
			pair := pairOf[id]
			start := m[pair]
			if start == 0 {
				break
			}
			m[pair] = 0
			p := a.pairs[pair]
			if p == nil {
				p = &pairAcc{prof: PairProfile{Enter: pair, Confidence: 1}}
				a.pairs[pair] = p
			}
			p.prof.Count++
			p.prof.Ticks.Add(seg.Global[i] - (start - 1))
			p.cores[core>>6] |= 1 << (core & 63)
		}
	}
}

// result lists the pairs matched so far in report order: most expensive
// first, ties broken by enter id so the order is total. Each pair's
// confidence is the lowest among the cores that contributed to it.
func (a *profileAcc) result(conf Confidence) []PairProfile {
	out := make([]PairProfile, 0, len(a.pairs))
	for _, p := range a.pairs {
		prof := p.prof
		for w, word := range p.cores {
			for ; word != 0; word &= word - 1 {
				core := uint8(w*64 + bits.TrailingZeros64(word))
				if c := conf.ForCore(core); c < prof.Confidence {
					prof.Confidence = c
				}
			}
		}
		out = append(out, prof)
	}
	slices.SortFunc(out, func(a, b PairProfile) int {
		if c := cmp.Compare(b.Ticks.Sum, a.Ticks.Sum); c != 0 {
			return c
		}
		return cmp.Compare(a.Enter, b.Enter)
	})
	return out
}

// Profile computes per-pair interval statistics over the whole trace.
// Pairs are matched per core in stream order; unmatched enters (truncated
// traces) are dropped.
func Profile(tr *Trace) []PairProfile {
	var a profileAcc
	a.fold(tr.segment())
	return a.result(tr.Confidence)
}

// WriteProfilePairs renders a computed profile as a table, most expensive
// pair first. On degraded (salvaged or lossy) traces a confidence column
// shows the record-survival fraction behind each row; clean traces keep
// the original layout.
func WriteProfilePairs(tr *Trace, pairs []PairProfile, w io.Writer) {
	degraded := tr.Confidence.Degraded()
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s", "interval", "count", "total ticks", "mean", "max")
	if degraded {
		fmt.Fprintf(w, " %6s", "conf")
	}
	fmt.Fprintln(w)
	for _, p := range pairs {
		name := p.Enter.String()
		// Strip the _ENTER suffix for readability.
		if n := len(name); n > 6 && name[n-6:] == "_ENTER" {
			name = name[:n-6]
		}
		fmt.Fprintf(w, "%-28s %8d %12d %12.1f %12d",
			name, p.Count, p.Ticks.Sum, p.Ticks.Mean(), p.Ticks.Max)
		if degraded {
			fmt.Fprintf(w, " %5.1f%%", 100*p.Confidence)
		}
		fmt.Fprintln(w)
	}
}

// WriteIntervalsCSV exports the reconstructed state intervals:
// run,core,state,start,end,ticks.
func WriteIntervalsCSV(tr *Trace, w io.Writer) error {
	if _, err := fmt.Fprintln(w, "run,core,state,start_tick,end_tick,ticks"); err != nil {
		return err
	}
	for _, iv := range Intervals(tr) {
		_, err := fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n",
			iv.Run, iv.Core, iv.State, iv.Start, iv.End, iv.Dur())
		if err != nil {
			return err
		}
	}
	return nil
}
