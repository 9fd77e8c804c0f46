package analyzer

import "github.com/celltrace/pdt/internal/spare"

// The large kernels' transient arrays — the critical path's indexes and
// segments, the gap threshold's distances, cycle detection's per-run
// columns and the batch load's record offsets — come from these lists
// and go back before their kernel returns. Allocated fresh, each was
// zeroed and then written in full, and after an idle spell took a page
// fault on every page it first touched (docs/MODEL.md, "Spare arrays").
// No result aliases a spare.
//
// SpareBytes bounds what the lists keep together: the analyze_batch
// kinds on the benchmark's 80k-event trace keep about 3 MB, a self-diff
// holding both sides' indexes at once. spareCount bounds each list's
// arrays. A diff's two sides detect cycles at once, each on up to
// GOMAXPROCS workers with three uint64 arrays apiece, so 64 serves ten
// processors; the byte bound binds first on the large trace.
const (
	SpareBytes = 4 << 20
	spareCount = 64
)

var (
	// Spares is the lists' shared byte budget.
	Spares = spare.NewBudget(SpareBytes)
	// SpareInt32s and SpareUint64s are shared with the kernels of the
	// sibling packages (cycles).
	SpareInt32s  = spare.New[int32](spareCount, Spares)
	SpareUint64s = spare.New[uint64](spareCount, Spares)

	spareUint32s  = spare.New[uint32](spareCount, Spares)
	spareSegments = spare.New[PathSegment](spareCount, Spares)
)
