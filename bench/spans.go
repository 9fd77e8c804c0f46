package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// outside the layer. Start and End are nanoseconds since the recorder's
// epoch. Parent is the index of the enclosing span in the same spans
// file, -1 for the root span of an op. Op is the op's sequence number in
// the closed loop, shared by every span of that op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`

	// AllocBytes and Allocs are the heap bytes and objects the process
	// allocated while the span was open; set only for spans opened with
	// beginAlloc, and exact only with a single caller.
	AllocBytes uint64 `json:"allocBytes,omitempty"`
	Allocs     uint64 `json:"allocs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps the spans of one caller in memory. A nil *recorder is
// the tracing-off path: every method is a no-op, so op code calls it
// unconditionally.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int32
	op    int32
	marks []memMark // parallel to open
}

// memMark is the allocation reading taken when a beginAlloc span opened.
type memMark struct {
	on             bool
	bytes, mallocs uint64
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<14)}
}

// startOp sets the op sequence number stamped on the spans that follow.
func (r *recorder) startOp(seq int) {
	if r != nil {
		r.op = int32(seq)
	}
}

func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	i := int32(len(r.spans))
	r.open = append(r.open, i)
	r.marks = append(r.marks, memMark{})
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: r.op, End: -1,
		Start: int64(time.Since(r.epoch))})
	return i
}

// beginAlloc is begin plus an exact allocation count for the span.
// runtime.ReadMemStats stops the world, so it is called before the start
// stamp and after the end stamp: its cost lands in the parent's self
// time, not in this span.
func (r *recorder) beginAlloc(name string) int32 {
	if r == nil {
		return -1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	i := r.begin(name)
	r.marks[len(r.marks)-1] = memMark{on: true, bytes: ms.TotalAlloc, mallocs: ms.Mallocs}
	return i
}

// beginAllocIf counts allocations only when exact is set.
func (r *recorder) beginAllocIf(exact bool, name string) int32 {
	if exact {
		return r.beginAlloc(name)
	}
	return r.begin(name)
}

func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.epoch))
	n := len(r.open) - 1
	if before := r.marks[n]; before.on {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.spans[i].AllocBytes = after.TotalAlloc - before.bytes
		r.spans[i].Allocs = after.Mallocs - before.mallocs
	}
	r.open, r.marks = r.open[:n], r.marks[:n]
}

// abandon closes every span left open by an op that returned early on an
// error, so a failed op cannot become the parent of the next one.
func (r *recorder) abandon() {
	if r == nil {
		return
	}
	for len(r.open) > 0 {
		r.marks[len(r.marks)-1].on = false
		r.end(r.open[len(r.open)-1])
	}
}

// mergeSpans concatenates the per-caller span lists, leaving out the ops
// keep does not hold — warm-up, failed, or outside the quiet slices — and
// renumbering parents to match.
func mergeSpans(recs []*recorder, keep map[int32]bool) []span {
	var all []span
	for _, r := range recs {
		if r == nil {
			continue
		}
		moved := make([]int32, len(r.spans)) // index in all, -1 when left out
		for i, s := range r.spans {
			moved[i] = -1
			if !keep[s.Op] {
				continue
			}
			if s.Parent >= 0 {
				s.Parent = moved[s.Parent]
			}
			moved[i] = int32(len(all))
			all = append(all, s)
		}
	}
	return all
}

// selfTimes returns, per span, its duration minus the time its direct
// children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// opInfo says what an op sequence number was: which trace and kind.
type opInfo struct {
	Op    int32  `json:"op"`
	Trace string `json:"trace"`
	Kind  string `json:"kind"`
	Class string `json:"class"`
}

type spansFile struct {
	Workload string   `json:"workload"`
	Ops      []opInfo `json:"ops"`
	Spans    []span   `json:"spans"`
}

func writeSpans(path string, f spansFile) error {
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
