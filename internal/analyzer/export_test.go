package analyzer

import "unsafe"

// MatchChannels exposes the critical path's channel matcher to the
// package's external tests: for every row of tr, the row of the send it
// received from, or -1.
func MatchChannels(tr *Trace) []int {
	crossDep := matchChannels(tr.segment())
	out := make([]int, len(crossDep))
	for i, snd := range crossDep {
		out[i] = int(snd)
	}
	SpareInt32s.Put(crossDep)
	return out
}

// SparesKept sums the bytes the kernels' lists keep, read off the lists
// themselves rather than their budget.
func SparesKept() int64 {
	sum := func(caps []int, size uintptr) (n int64) {
		for _, c := range caps {
			n += int64(c) * int64(size)
		}
		return n
	}
	return sum(SpareInt32s.Caps(), 4) + sum(SpareUint64s.Caps(), 8) +
		sum(spareUint32s.Caps(), 4) + sum(spareSegments.Caps(), unsafe.Sizeof(PathSegment{}))
}
