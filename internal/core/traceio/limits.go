package traceio

import (
	"context"
	"errors"
	"fmt"
)

// Limits bounds the resources a single trace is allowed to consume while
// being parsed, decoded, or salvaged. The zero value means "no limit" for
// every field, which preserves the historical trusted-operator behavior;
// services exposed to untrusted inputs should start from
// DefaultServiceLimits and tighten per deployment.
//
// Limits are admission control, not accounting: a field is checked against
// the header-declared size of a structure *before* the corresponding
// allocation or decode work happens, so a hostile trace whose headers
// declare absurd sizes is rejected with ErrLimitExceeded instead of
// driving a giant allocation and getting OOM-killed later.
type Limits struct {
	// MaxFileBytes caps the total input size accepted by ReadContext and
	// ParseContext.
	MaxFileBytes int64
	// MaxMetaBytes caps the declared length of the XML metadata blob.
	MaxMetaBytes int
	// MaxChunkBytes caps the declared data length of a single chunk.
	MaxChunkBytes int
	// MaxRecords caps the number of records decoded from one trace
	// (enforced cumulatively by the analyzer across chunks, and per chunk
	// by FrameRecords).
	MaxRecords int
	// MaxDecodeBytes budgets the memory the decoded in-core event
	// representation may take (enforced by the analyzer, which knows its
	// per-event footprint).
	MaxDecodeBytes int64
	// StreamWindowBytes budgets the working memory of a streaming load
	// (analyzer.StreamLoader): framed-but-unmerged chunks are folded into
	// the incremental kernels whenever their footprint reaches this
	// window. It bounds resident memory, not input size — unlike the caps
	// above it is a pacing knob, not admission control, so setting it
	// alone does not flip Unlimited. Zero means the streaming default.
	StreamWindowBytes int64
}

// Unlimited reports whether every admission-control field is zero.
// StreamWindowBytes is excluded: it paces streaming memory but admits
// nothing, so a window on its own leaves the trusted-operator behavior
// (no caps) intact.
func (l Limits) Unlimited() bool {
	l.StreamWindowBytes = 0
	return l == Limits{}
}

// DefaultServiceLimits are the admission-control bounds pdt-tad ships
// with: generous enough for any trace the simulator produces, small
// enough that a hostile input cannot take the process down.
func DefaultServiceLimits() Limits {
	return Limits{
		MaxFileBytes:   256 << 20, // 256 MiB input file
		MaxMetaBytes:   4 << 20,   // 4 MiB metadata blob
		MaxChunkBytes:  64 << 20,  // 64 MiB per chunk
		MaxRecords:     50_000_000,
		MaxDecodeBytes: 2 << 30, // 2 GiB of decoded events
	}
}

// ErrLimitExceeded marks input rejected by admission control: some header
// field declared a size beyond the configured Limits. It is deliberately
// distinct from ErrCorrupt — the file may be perfectly well formed, just
// bigger than this consumer is willing to process.
var ErrLimitExceeded = errors.New("traceio: resource limit exceeded")

// limitErr builds a typed admission-control failure.
func limitErr(what string, declared, max int64) error {
	return fmt.Errorf("%w: %s %d exceeds limit %d", ErrLimitExceeded, what, declared, max)
}

// ctxStride is how many loop iterations scanners run between context
// checks: frequent enough that cancellation propagates in well under the
// 100 ms budget, rare enough to stay off the profile.
const ctxStride = 4096

// checkEvery polls ctx.Err once per stride calls. Callers pass a loop
// counter; the check runs when n is a multiple of ctxStride.
func checkEvery(ctx context.Context, n int) error {
	if n%ctxStride == 0 {
		return ctx.Err()
	}
	return nil
}
