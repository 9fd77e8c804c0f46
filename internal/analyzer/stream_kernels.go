package analyzer

import (
	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// This file composes the analysis kernels for the streaming loader. The
// kernels themselves are the accumulators next to each batch function
// (summaryAcc, profileAcc, ppeAcc, validateAcc): the
// batch functions fold the whole store as one segment, StreamLoader folds
// one merged window at a time. Many windows give the one-segment result
// because window segments preserve the merged order *within each core and
// each run* (chunks decode in file order, the tracer writes each core in
// stamp order, and the in-window merge is the batch merge), and
// every kernel is a per-core/per-run state machine combined with
// order-insensitive sums.
// stream_equiv_test.go checks that identity byte-for-byte on every
// workload.

// snapshotInput is the loader-side state a snapshot combines with the
// accumulated kernel state.
type snapshotInput struct {
	final     bool
	truncated bool
	complete  bool
	issues    []Issue
	strings   map[uint64]string
	bytes     int64
}

// streamAccumulators folds merged segments into every kernel the stream
// reports. All calls happen under the owning StreamLoader's mutex.
type streamAccumulators struct {
	// header and meta point into the loader's framing scanner: filled in
	// when the stream's prefix arrives, and meta.Anchors grows with every
	// in-band LiveAnchor record.
	header *traceio.Header
	meta   *traceio.Meta

	sum  summaryAcc
	prof profileAcc
	ppe  ppeAcc
	val  *validateAcc // nil unless StreamOptions.Validate
}

func newStreamAccumulators(opts StreamOptions, header *traceio.Header, meta *traceio.Meta) *streamAccumulators {
	a := &streamAccumulators{header: header, meta: meta}
	if opts.Validate {
		a.val = &validateAcc{}
	}
	return a
}

// fold consumes one merged segment. strings is the loader's interned
// string table, already updated with every StringDef up to and
// including this segment.
func (a *streamAccumulators) fold(seg *colstore.Store, strings map[uint64]string) {
	a.sum.cpt = cyclesPerTick(a.header)
	a.sum.fold(seg)
	a.prof.fold(seg)
	a.ppe.fold(seg)
	if a.val != nil {
		a.val.fold(seg, strings)
	}
}

// snapshot materializes the kernel results over the events folded so
// far. Result methods work on copies, so a snapshot of a finished stream
// is the batch result and a mid-stream snapshot leaves the live state
// machines undisturbed.
func (a *streamAccumulators) snapshot(in snapshotInput) *StreamResult {
	// The stream knows only the metadata's drop accounting; salvage damage
	// is a batch-only input.
	conf := computeConfidence(&a.sum.perCore, a.meta.Drops, nil)
	meta := *a.meta

	var valIssues []Issue
	if in.final && a.val != nil {
		valIssues = a.val.result(&meta, conf, in.truncated)
	}
	// Nil on a clean trace, like the batch load's.
	issues := append(append(fileIssues(in.truncated, meta.Drops), in.issues...), valIssues...)

	strs := make(map[uint64]string, len(in.strings))
	for k, v := range in.strings {
		strs[k] = v
	}
	s := a.sum.result(&meta, conf)
	return &StreamResult{
		Trace: &Trace{
			Header:     *a.header,
			Meta:       meta,
			Strings:    strs,
			Truncated:  in.truncated,
			Issues:     issues,
			Confidence: conf,
		},
		Summary:              s,
		Profile:              a.prof.result(conf),
		PPE:                  a.ppe.stats,
		EffectiveConcurrency: s.effectiveConcurrency(),
		Complete:             in.complete,
		Bytes:                in.bytes,
		Events:               int64(a.sum.events),
	}
}
