package analyzer

import (
	"github.com/celltrace/pdt/internal/core/event"
)

// SlackStats quantifies how well DMA latency was overlapped with compute
// for one run: for every tag-group wait, the slack is the time between
// the last command issued on a waited tag and the start of the wait —
// the window in which the transfer could progress under compute. Waits
// that start immediately after issue (slack ~ 0) indicate synchronous,
// unoverlapped DMA; double buffering shows up as slack comparable to the
// transfer time and near-zero wait durations.
type SlackStats struct {
	Run   int
	Core  uint8
	Waits int
	// Slack is the issue-to-wait distance distribution (ticks).
	Slack Histogram
	// WaitDur is the in-wait duration distribution (ticks).
	WaitDur Histogram
}

// DMASlack computes slack statistics for one run.
func DMASlack(tr *Trace, run int) SlackStats {
	evs := tr.RunEvents(run)
	st := SlackStats{Run: run}
	if len(evs) == 0 {
		return st
	}
	st.Core = evs[0].Core
	var lastIssue [32]uint64 // per-tag last command issue time
	var lastIssueSet [32]bool
	var waitStart uint64
	var waitMask uint64
	inWait := false
	for _, e := range evs {
		switch e.ID {
		case event.SPEMFCGet, event.SPEMFCPut, event.SPEMFCGetList, event.SPEMFCPutList:
			tag := e.Args[3] % 32
			lastIssue[tag] = e.Global
			lastIssueSet[tag] = true
		case event.SPEWaitTagEnter:
			inWait = true
			waitStart = e.Global
			waitMask = e.Args[0]
		case event.SPEWaitTagExit:
			if !inWait {
				break
			}
			inWait = false
			st.Waits++
			st.WaitDur.Add(e.Global - waitStart)
			// Slack relative to the newest issue among waited tags.
			var newest uint64
			var any bool
			for t := 0; t < 32; t++ {
				if waitMask&(1<<uint(t)) != 0 && lastIssueSet[t] {
					if lastIssue[t] > newest {
						newest = lastIssue[t]
					}
					any = true
				}
			}
			if any && waitStart >= newest {
				st.Slack.Add(waitStart - newest)
			}
		}
	}
	return st
}

// BWPoint is one bucket of the DMA-traffic time series.
type BWPoint struct {
	StartTick uint64
	// Bytes issued in the bucket (GET+PUT+list totals, all SPEs).
	Bytes uint64
}

// BandwidthSeries buckets DMA bytes issued over the trace span — the
// traffic view of the timeline.
func BandwidthSeries(tr *Trace, n int) []BWPoint {
	if n <= 0 {
		n = 1
	}
	start, end := tr.Span()
	if end <= start {
		return nil
	}
	span := end - start
	out := make([]BWPoint, n)
	for i := range out {
		out[i].StartTick = start + uint64(i)*span/uint64(n)
	}
	s := tr.col
	for i, id := range s.ID {
		switch id {
		case event.SPEMFCGet, event.SPEMFCPut, event.SPEMFCGetList, event.SPEMFCPutList:
			b := int((s.Global[i] - start) * uint64(n) / span)
			if b >= n {
				b = n - 1
			}
			out[b].Bytes += s.Args[s.ArgOff[i]+2]
		}
	}
	return out
}

// Comparison is an A/B diff of two trace summaries (e.g. single- vs
// double-buffered runs of the same workload).
type Comparison struct {
	WallA, WallB uint64
	// Speedup is WallA/WallB (>1 means B is faster).
	Speedup float64
	// StateA/StateB are total per-state ticks.
	StateA, StateB [int(numStates)]uint64
	// RecordsA/B are total record counts.
	RecordsA, RecordsB int
}

// Compare diffs two summaries.
func Compare(a, b *Summary) *Comparison {
	c := &Comparison{
		WallA: a.WallTicks, WallB: b.WallTicks,
		RecordsA: a.TotalRecs, RecordsB: b.TotalRecs,
	}
	if b.WallTicks > 0 {
		c.Speedup = float64(a.WallTicks) / float64(b.WallTicks)
	}
	for _, st := range States() {
		c.StateA[st] = a.TotalState(st)
		c.StateB[st] = b.TotalState(st)
	}
	return c
}
