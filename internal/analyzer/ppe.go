package analyzer

import (
	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/event"
)

// PPEStats aggregates the host-side view of a trace: how long the PPE
// thread(s) spent blocked waiting on SPEs and mailboxes, and how much
// proxy traffic they drove. The paper's TA shows the PPE lane alongside
// the SPE lanes; these are its numbers.
type PPEStats struct {
	Records int
	// SPEWaits counts spe_context_run-style waits; WaitTicks is their
	// total blocked time.
	SPEWaits  int
	WaitTicks uint64
	// MboxReads/Writes are completed host mailbox operations, with
	// their blocked time.
	MboxReads, MboxWrites int
	MboxWaitTicks         uint64
	// ProxyGets/Puts count proxy DMA commands and their bytes.
	ProxyGets, ProxyPuts int
	ProxyBytes           uint64
	// ProxyWaitTicks is time blocked in proxy tag waits.
	ProxyWaits     int
	ProxyWaitTicks uint64
}

// ppeAcc is the host-side scanner summaryAcc folds beside the SPE runs,
// one merged segment at a time, into Summary.PPE. PPE records keep their
// merged relative order across stream windows — each thread's chunks
// decode in file order — so the enter table pairs exactly as a scan of
// the whole trace. An exit
// pairs with its own thread's enter: PPE threads wait at overlapping
// times.
type ppeAcc struct {
	stats PPEStats
	enter map[ppeOpen]uint64 // open Enter timestamps
}

// ppeOpen keys an open Enter by PPE thread and enter ID.
type ppeOpen struct {
	core uint8
	id   event.ID
}

func (a *ppeAcc) fold(seg *colstore.Store) {
	if a.enter == nil {
		a.enter = map[ppeOpen]uint64{}
	}
	st := &a.stats
	for i, core := range seg.Core {
		if core < event.CorePPEBase {
			continue
		}
		st.Records++
		id := seg.ID[i]
		info, ok := event.Lookup(id)
		if !ok {
			continue
		}
		g := seg.Global[i]
		switch info.Kind {
		case event.KindEnter:
			a.enter[ppeOpen{core, id}] = g
		case event.KindExit:
			key := ppeOpen{core, info.Pair}
			start, open := a.enter[key]
			if !open {
				break
			}
			delete(a.enter, key)
			d := g - start
			switch id {
			case event.PPEWaitExit:
				st.SPEWaits++
				st.WaitTicks += d
			case event.PPEReadOutMboxExit, event.PPEReadIntrMboxExit:
				st.MboxReads++
				st.MboxWaitTicks += d
			case event.PPEWriteInMboxExit:
				st.MboxWrites++
				st.MboxWaitTicks += d
			case event.PPEWaitTagExit:
				st.ProxyWaits++
				st.ProxyWaitTicks += d
			}
		}
		switch id {
		case event.PPEDMAGet:
			st.ProxyGets++
			st.ProxyBytes += seg.Args[seg.ArgOff[i]+3]
		case event.PPEDMAPut:
			st.ProxyPuts++
			st.ProxyBytes += seg.Args[seg.ArgOff[i]+3]
		}
	}
}

// ParallelismPoint is one bucket of the parallelism profile.
type ParallelismPoint struct {
	StartTick uint64
	// Busy is the mean number of SPEs in compute state in the bucket.
	Busy float64
}

// ParallelismSeries computes the SPE parallelism profile: per time bucket,
// the average number of SPEs actively computing. Its time-average is the
// trace's effective concurrency.
func ParallelismSeries(tr *Trace, n int) []ParallelismPoint {
	if n <= 0 {
		n = 1
	}
	start, end := tr.Span()
	if end <= start {
		return nil
	}
	span := end - start
	busy := make([]uint64, n)
	for run := range tr.Meta.Anchors {
		WalkRun(tr, run, func(state State, s, e uint64) {
			if state == StateCompute {
				clipBuckets(start, span, n, s, e, func(bk int, ticks uint64) { busy[bk] += ticks })
			}
		})
	}
	out := make([]ParallelismPoint, n)
	for i := range out {
		out[i].StartTick = start + uint64(i)*span/uint64(n)
		width := span / uint64(n)
		if width > 0 {
			out[i].Busy = float64(busy[i]) / float64(width)
		}
	}
	return out
}
