package analyzer

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// runParallel runs n independent tasks on a bounded pool of at most
// `workers` goroutines (GOMAXPROCS when workers <= 0) and returns once
// every task has finished. Tasks are handed out through a shared counter,
// so uneven task costs balance across the pool. A panic inside a task is
// captured and re-raised on the calling goroutine, preserving the
// panic-containment contract of the serial kernels (pdt-tad's recovery
// middleware can only catch panics on the handler goroutine).
func runParallel(workers, n int, task func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var next atomic.Int64
	var panicked atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panicked.CompareAndSwap(nil, v)
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
	if v := panicked.Load(); v != nil {
		panic(v)
	}
}

// RunParallel exposes the bounded worker pool to sibling analysis
// packages (analyzer/diff shards its per-core scans on it): n
// independent tasks on at most `workers` goroutines (GOMAXPROCS when
// workers <= 0), panics re-raised on the caller.
func RunParallel(workers, n int, task func(i int)) { runParallel(workers, n, task) }

// parallelThreshold is the event count below which the sharded kernels
// (CoreStateTicks, diff.Diff) run their serial variants instead of fanning
// out: at ~16k events pool startup and shard merging
// cost more than the whole serial scan, while at ~10x that the parallel
// variants win 1.8-3.9x (docs/MODEL.md, "Which kernels still shard").
const parallelThreshold = 1 << 15

// ParallelThreshold exposes the adaptive-parallelism cutoff to sibling
// analysis packages (analyzer/diff gates its sharded scans on it).
func ParallelThreshold() int { return parallelThreshold }

// parallelWorthwhile reports whether fanning a kernel out over a worker
// pool can pay for itself: the trace must be past the measured size
// threshold AND the host must actually have more than one processor —
// on a single P the pool serializes anyway, so channel and shard-merge
// overhead is pure loss.
func (tr *Trace) parallelWorthwhile() bool {
	return runtime.GOMAXPROCS(0) > 1 && tr.NumEvents() >= parallelThreshold
}

// Cores returns the distinct core ids present in the trace, ascending.
func (tr *Trace) Cores() []uint8 {
	out := make([]uint8, 0, len(tr.coreSeq))
	for c := range tr.coreSeq {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// Footprint reports the resident size of the loaded trace in bytes: the
// exact columnar store size (fixed-width columns, argument arena,
// interned strings) plus the per-core/per-run index arenas and a small
// constant for the surrounding structures. The trace cache starts an
// entry's weight for its byte bound from it.
func (tr *Trace) Footprint() int64 {
	n := int64(4096)
	if tr.col != nil {
		n += tr.col.Bytes()
	}
	// Index arenas: 4 bytes per entry; every event appears once in the
	// core index and SPE events once more in the run index.
	for _, seqs := range tr.coreSeq {
		n += int64(len(seqs)) * 4
	}
	for _, seqs := range tr.runSeq {
		n += int64(len(seqs)) * 4
	}
	for _, s := range tr.Strings {
		n += 8 + 16 + int64(len(s))
	}
	return n
}
