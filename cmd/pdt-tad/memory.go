package main

// The daemon's soft memory limit. The cache budget bounds what pdt-tad
// keeps; the Go runtime's soft limit bounds how far the heap may grow
// around it (docs/SERVICE.md, "Memory").

import (
	"math"
	"runtime/debug"
	"sync"
)

// inflightHeadroom is the headroom each byte of a trace image under
// analysis claims. Four near-cap (55 MiB) analyses beside a full cache
// kept about five bytes live per image byte — body, decoded trace,
// kernel tables — and the collector needs about as much again for the
// garbage between its cycles.
const inflightHeadroom = 8

// memoryLimit decides, from the configuration and the GOMEMLIMIT the
// operator set ("" = unset), whether the daemon manages the runtime's
// soft memory limit. It returns the cache byte budget the limit follows
// (0 = set none) and what decided: "cache-bytes"; "GOMEMLIMIT", whose
// limit the daemon leaves alone; or "none" — no byte budget, or one whose
// limit would overflow.
func memoryLimit(cfg config, gomemlimit string) (budget int64, source string) {
	switch {
	case gomemlimit != "":
		return 0, "GOMEMLIMIT"
	case cfg.cacheBytes <= 0 || cfg.cacheBytes > math.MaxInt64/3:
		return 0, "none"
	}
	return cfg.cacheBytes, "cache-bytes"
}

// limitFor is the soft limit for a cache byte budget B with inflight
// bytes of trace images being analysed: B plus headroom for garbage —
// 3/4 B, or inflightHeadroom per in-flight byte when that is more. The
// cache keeps up to B live, and without a limit the collector lets the
// heap grow to twice its live size before it runs. At the default
// 256 MiB budget it is 448 MiB until the images in flight pass 24 MiB
// together.
func limitFor(budget, inflight int64) int64 {
	if inflight > (math.MaxInt64-budget)/inflightHeadroom {
		return math.MaxInt64
	}
	return budget + max(budget*3/4, inflightHeadroom*inflight)
}

// memLimit keeps the runtime's soft limit at limitFor(budget, bytes in
// flight). A nil *memLimit manages nothing.
type memLimit struct {
	budget int64

	mu       sync.Mutex
	inflight int64 // bytes of the trace images being analysed
	limit    int64 // the limit last set; 0 once stopped
}

// startMemLimit sets the limit of an idle daemon with a byte budget and
// returns its manager (nil for no budget) and a stop func. The limit is
// process-wide: stop puts back the one it found, so a caller that runs
// the daemon in-process keeps its own.
func startMemLimit(budget int64) (m *memLimit, stop func()) {
	if budget <= 0 {
		return nil, func() {}
	}
	m = &memLimit{budget: budget, limit: limitFor(budget, 0)}
	prev := debug.SetMemoryLimit(m.limit)
	return m, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.limit = 0
		debug.SetMemoryLimit(prev)
	}
}

// hold counts n bytes of trace image under analysis toward the limit
// until release is called.
func (m *memLimit) hold(n int64) (release func()) {
	if m == nil || n <= 0 {
		return func() {}
	}
	m.add(n)
	return func() { m.add(-n) }
}

func (m *memLimit) add(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inflight += n
	if l := limitFor(m.budget, m.inflight); m.limit != 0 && l != m.limit {
		m.limit = l
		debug.SetMemoryLimit(l)
	}
}

// runtimeMemoryLimit reads the soft memory limit in force, 0 for none.
func runtimeMemoryLimit() int64 {
	if l := debug.SetMemoryLimit(-1); l != math.MaxInt64 {
		return l
	}
	return 0
}
