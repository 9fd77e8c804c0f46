package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
)

// The reference host is a virtual machine whose hypervisor withholds CPU
// time in phases: for minutes at a stretch a third to a half of the time
// the guest asks for is stolen, and every wall-clock number reads two to
// three times its calm value (README, "Repeatability"). The kernel counts
// that time, so the benchmark reads the count and measures in the quiet
// stretches between.

// stealLimit is the stolen share of the CPU time the guest asked for above
// which a stretch of time is not measured. Calm stretches read 0 to 0.03.
const stealLimit = 0.05

// hostTicks is a reading of the "cpu" line of /proc/stat, in clock ticks
// summed over the CPUs.
type hostTicks struct {
	busy  uint64 // user, nice, system, irq, softirq
	steal uint64 // wanted by the guest, withheld by the hypervisor
}

// readHostTicks returns the zero reading where /proc/stat does not have
// the line: no steal is ever seen, and every stretch counts as quiet.
func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}
	}
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return hostTicks{}
		}
	}
	return hostTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stolen is the share of the CPU time the guest asked for between two
// readings that it did not get.
func stolen(from, to hostTicks) float64 {
	withheld := float64(to.steal - from.steal)
	return ratio(withheld, withheld+float64(to.busy-from.busy))
}

// slice is one stretch of an open window, between two readings of the
// clocks.
type slice struct {
	from, to int64    // ns since the loop started
	stolen   float64  // see stolen
	cpu      int64    // CPU ns the process under test used
	have     [2]int64 // samples completed: small, large
}

// quietest picks the slices a window's metrics come from: every slice
// whose stolen share is within limit and, where those are shorter than the
// window or hold fewer than floor samples of a class, the quietest of the
// rest until they are not. enough reports that the slices within limit
// sufficed, which is when an open window may close.
func quietest(slices []slice, tm timing) (keep []bool, enough bool) {
	order := make([]int, len(slices))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return slices[order[a]].stolen < slices[order[b]].stolen })
	keep = make([]bool, len(slices))
	var ns int64
	var have [2]int64
	short := func() bool {
		return ns < int64(tm.Window) || min(have[0], have[1]) < int64(tm.Floor)
	}
	enough = true
	for _, i := range order {
		s := slices[i]
		if s.stolen > tm.Steal {
			if !short() {
				break
			}
			enough = false
		}
		keep[i] = true
		ns += s.to - s.from
		have[0] += s.have[0]
		have[1] += s.have[1]
	}
	return keep, enough && !short()
}

// sliceOf returns the index of the slice that holds the instant t, -1 when
// none does.
func sliceOf(slices []slice, t int64) int {
	i := sort.Search(len(slices), func(i int) bool { return slices[i].to > t })
	if i < len(slices) && slices[i].from <= t {
		return i
	}
	return -1
}
