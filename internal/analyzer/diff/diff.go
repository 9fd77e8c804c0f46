// Package diff implements trace differencing and overhead attribution:
// given two loaded traces of the same workload — typically a
// full-instrumentation run and a reduced-event-group run — it aligns
// cores and event groups, computes per-core and per-group deltas of
// record counts, busy/stall/gap time and DMA wait distributions, and
// attributes the wall-clock delta to tracing overhead sources
// (trace-buffer flushes, per-record production cost) plus the critical
// path perturbation on both sides.
//
// A simple effect-size gate keeps noise out of the flagged set: a delta
// is significant only when it exceeds both an absolute floor and a
// relative fraction of the larger side.
//
// Diff shards its per-core scans on the analyzer's bounded worker pool;
// DiffSerial is the sequential reference implementation Diff is tested
// DeepEqual against for every registered workload. A caller whose two
// traces arrive apart derives each with DeriveSide when it arrives and
// assembles the report with Compare.
package diff

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cycles"
	"github.com/celltrace/pdt/internal/core/event"
)

// ErrWorkloadMismatch rejects a diff of traces from different workloads;
// cross-workload deltas attribute nothing meaningful.
var ErrWorkloadMismatch = errors.New("diff: traces come from different workloads")

// Options selects per-cycle diffing.
type Options struct {
	// Mode selects per-cycle diffing: ModeMatch pairs cycles by
	// signature class, ModeAlign LCS-aligns them positionally and
	// classifies insertions/deletions. Empty keeps per-cycle diffing off
	// (Report.Cycles stays nil and the output is unchanged).
	Mode string
}

// The effect-size gate: a delta is flagged only when it reaches both
// the absolute floor for its unit and gateRel of the larger side.
const (
	gateRel   = 0.01 // minimum |Δ| as a fraction of the larger side
	gateTicks = 500  // minimum absolute tick delta
	gateCount = 8    // minimum absolute count delta
)

// flagTicks applies the effect-size gate to a tick-valued pair.
func flagTicks(a, b uint64) bool {
	d := a - b
	if b > a {
		d = b - a
	}
	m := a
	if b > m {
		m = b
	}
	return d > 0 && d >= gateTicks && float64(d) >= gateRel*float64(m)
}

// flagCount applies the effect-size gate to a count-valued pair.
func flagCount(a, b int) bool {
	d := a - b
	if b > a {
		d = b - a
	}
	m := a
	if b > m {
		m = b
	}
	return d > 0 && d >= gateCount && float64(d) >= gateRel*float64(m)
}

// CoreSide is one side's metrics for one core.
type CoreSide struct {
	// Records is the number of trace records the core contributed.
	Records int
	// WallTicks spans the core's first to last event.
	WallTicks uint64
	// BusyTicks is compute-state interval time; StallTicks sums the DMA,
	// mailbox, signal, sync and host-wait stall states; FlushTicks is
	// PDT's own trace-buffer flush state.
	BusyTicks  uint64
	StallTicks uint64
	FlushTicks uint64
	// GapTicks is core wall time not covered by any reconstructed
	// interval (inter-run idle, untraced stretches).
	GapTicks uint64
	// DMAWait is the per-wait duration distribution of the core's
	// tag-group waits, in ticks.
	DMAWait analyzer.Histogram
}

// CoreDelta aligns one core across the two traces. A core present on
// only one side gets a zero CoreSide on the other.
type CoreDelta struct {
	Core uint8
	A, B CoreSide
	// Flagged marks a core whose busy, stall, flush, gap or wall delta
	// passes the effect-size gate; DMAFlagged gates on the mean DMA wait.
	Flagged    bool
	DMAFlagged bool
}

// GroupDelta aligns one event group's record counts.
type GroupDelta struct {
	Group   event.Group
	CountA  int
	CountB  int
	Flagged bool
}

// Delta returns CountB − CountA.
func (g GroupDelta) Delta() int64 { return int64(g.CountB) - int64(g.CountA) }

// Attribution explains where the wall-tick delta went. The invariant —
// preserved under arbitrary (salvaged, truncated) inputs and checked by
// FuzzDiff — is that attribution never exceeds the total:
//
//	FlushAttributed + RecordAttributed + ResidualTicks == WallDeltaTicks
//	|FlushAttributed| + |RecordAttributed| <= |WallDeltaTicks|
//
// with every attributed term carrying the sign of the total.
type Attribution struct {
	// WallDeltaTicks is the total to attribute: trace span B − A.
	WallDeltaTicks int64
	// FlushDeltaTicks is the measured trace-buffer flush-state delta;
	// FlushAttributed is the portion of the wall delta it can claim
	// (clamped so it never over-attributes).
	FlushDeltaTicks int64
	FlushAttributed int64
	// RecordDelta is total records B − A. When it moves in the same
	// direction as the remaining wall delta, the remainder is attributed
	// to record production cost and PerRecordTicks estimates the cost of
	// one extra record.
	RecordDelta      int64
	RecordAttributed int64
	PerRecordTicks   float64
	// ResidualTicks is whatever the sources above could not claim
	// (perturbation, scheduling shifts, measurement noise).
	ResidualTicks int64
}

// CritCoreDelta is one core's critical-path attribution on both sides.
type CritCoreDelta struct {
	Core uint8
	A, B uint64
}

// CritPathDelta compares the critical-path analyses of the two sides:
// how instrumentation perturbed what the run was actually waiting on.
type CritPathDelta struct {
	TotalA, TotalB uint64
	Cores          []CritCoreDelta
}

// Delta returns TotalB − TotalA.
func (c CritPathDelta) Delta() int64 { return int64(c.TotalB) - int64(c.TotalA) }

// Report is the structured result of a trace diff. All deltas are
// B − A: diffing a trace against itself yields the zero report, and
// swapping the arguments negates every delta.
type Report struct {
	Workload string
	// RecordsA/B and WallA/B are whole-trace totals.
	RecordsA, RecordsB int
	WallA, WallB       uint64
	// FlushA/B are whole-trace flush-state ticks.
	FlushA, FlushB uint64
	// ConfidenceA/B are the record-survival fractions of each side
	// (1.0 for clean traces; lower after drops or salvage).
	ConfidenceA, ConfidenceB float64
	// Cores aligns the union of both sides' cores, ascending.
	Cores []CoreDelta
	// Groups aligns every event group in declaration order.
	Groups []GroupDelta
	// Overhead attributes the wall delta; CritPath shows the critical
	// path on both sides.
	Overhead Attribution
	CritPath CritPathDelta
	// Cycles is the per-cycle layer; nil unless Options.Mode selected a
	// cycle-diff mode.
	Cycles *CycleDiffReport
}

// RecordDelta returns RecordsB − RecordsA.
func (r *Report) RecordDelta() int64 { return int64(r.RecordsB) - int64(r.RecordsA) }

// WallDelta returns WallB − WallA.
func (r *Report) WallDelta() int64 { return int64(r.WallB) - int64(r.WallA) }

// Zero reports whether the diff found no difference at all — the
// required result of diffing a trace against itself.
func (r *Report) Zero() bool {
	if r.RecordDelta() != 0 || r.WallDelta() != 0 || r.FlushA != r.FlushB ||
		r.ConfidenceA != r.ConfidenceB || r.CritPath.Delta() != 0 {
		return false
	}
	for _, c := range r.Cores {
		if c.A != c.B || c.Flagged || c.DMAFlagged {
			return false
		}
	}
	for _, g := range r.Groups {
		if g.Delta() != 0 || g.Flagged {
			return false
		}
	}
	for _, cc := range r.CritPath.Cores {
		if cc.A != cc.B {
			return false
		}
	}
	if r.Cycles != nil && !r.Cycles.Zero() {
		return false
	}
	o := r.Overhead
	return o.WallDeltaTicks == 0 && o.FlushDeltaTicks == 0 && o.FlushAttributed == 0 &&
		o.RecordDelta == 0 && o.RecordAttributed == 0 && o.ResidualTicks == 0
}

// Side is everything the diff needs from one trace: its scans, its
// critical path and, when a mode asks for them, its cycles.
type Side struct {
	workload   string
	records    int
	wall       uint64
	flush      uint64
	confidence float64
	perCore    map[uint8]*CoreSide
	groups     groupCounts
	crit       *analyzer.CriticalPath
	cycles     *cycles.Report
}

// Diff computes the structured diff of two loaded traces of the same
// workload. It derives everything from the traces themselves: the two
// sides are derived concurrently, and per-core scans shard on the
// analyzer's bounded worker pool. The result is DeepEqual to
// DiffSerial's.
func Diff(a, b *analyzer.Trace, opt Options) (*Report, error) {
	return diffTraces(a, b, opt, true)
}

// DiffSerial is the single-threaded reference implementation. (Cycle
// detection, when a Mode asks for it, is cycles.Detect on both paths.)
func DiffSerial(a, b *analyzer.Trace, opt Options) (*Report, error) {
	return diffTraces(a, b, opt, false)
}

func diffTraces(a, b *analyzer.Trace, opt Options, par bool) (*Report, error) {
	if a == nil || b == nil {
		return nil, errors.New("diff: nil trace")
	}
	if err := check(a.Meta.Workload, b.Meta.Workload, opt.Mode); err != nil {
		return nil, err
	}
	trs := [2]*analyzer.Trace{a, b}
	var sides [2]*Side
	one := func(i int) { sides[i] = computeSide(trs[i], opt.Mode, par) }
	if par {
		analyzer.RunParallel(0, 2, one)
	} else {
		one(0)
		one(1)
	}
	return Compare(sides[0], sides[1], opt)
}

// DeriveSide derives one trace's side of a diff in mode, with the
// parallel kernels, so a caller that holds one trace before the other
// can derive it while the other still loads. An invalid mode derives
// nothing but the workload: Compare rejects it.
func DeriveSide(tr *analyzer.Trace, mode string) *Side {
	if !ValidMode(mode) {
		return &Side{workload: tr.Meta.Workload}
	}
	return computeSide(tr, mode, true)
}

// Compare assembles the diff of two sides derived by DeriveSide. It is
// Diff of their traces when both were derived in opt.Mode.
func Compare(a, b *Side, opt Options) (*Report, error) {
	if err := check(a.workload, b.workload, opt.Mode); err != nil {
		return nil, err
	}
	if opt.Mode != "" && (a.cycles == nil || b.cycles == nil) {
		return nil, fmt.Errorf("diff: mode %q needs sides derived with cycles", opt.Mode)
	}
	rep := assemble(a, b)
	if opt.Mode != "" {
		rep.Cycles = cycleDiff(a.cycles, b.cycles, opt)
	}
	return rep, nil
}

// check rejects a diff across workloads, then an unknown mode.
func check(wa, wb, mode string) error {
	if wa != wb {
		return fmt.Errorf("%w: %q vs %q", ErrWorkloadMismatch, wa, wb)
	}
	if !ValidMode(mode) {
		return fmt.Errorf("%w: %q", ErrBadMode, mode)
	}
	return nil
}

// computeSide extracts one trace's metrics, and its cycles when mode is
// set. In parallel mode the per-core scans and the state fold run on the
// shared pool; serial mode uses the reference kernels and plain loops.
func computeSide(tr *analyzer.Trace, mode string, par bool) *Side {
	s := &Side{
		workload:   tr.Meta.Workload,
		records:    tr.NumEvents(),
		confidence: overallConfidence(tr),
		perCore:    map[uint8]*CoreSide{},
	}
	start, end := tr.Span()
	s.wall = end - start

	// State time by core, summed straight from the run machine and the
	// PPE lane walks.
	states := analyzer.CoreStateTicks(tr, par)

	// Per-core event scans: record counts, group counts, DMA wait
	// distribution, wall span. Each core's view is disjoint, so the
	// scans shard on the pool.
	cores := tr.Cores()
	perCore := make([]*CoreSide, len(cores))
	perGroups := make([]groupCounts, len(cores))
	scan := func(i int) {
		perCore[i], perGroups[i] = scanCore(tr, cores[i])
	}
	if par && tr.NumEvents() >= analyzer.ParallelThreshold() {
		analyzer.RunParallel(0, len(cores), scan)
	} else {
		for i := range cores {
			scan(i)
		}
	}
	for i, c := range cores {
		cs := perCore[i]
		for st, t := range states[c] {
			switch analyzer.State(st) {
			case analyzer.StateCompute:
				cs.BusyTicks += t
			case analyzer.StateFlush:
				cs.FlushTicks += t
			default:
				cs.StallTicks += t
			}
		}
		if covered := cs.BusyTicks + cs.StallTicks + cs.FlushTicks; cs.WallTicks > covered {
			cs.GapTicks = cs.WallTicks - covered
		}
		s.perCore[c] = cs
		s.flush += cs.FlushTicks
		for bit, n := range perGroups[i] {
			s.groups[bit] += n
		}
	}

	if par {
		s.crit = analyzer.ComputeCriticalPath(tr)
	} else {
		s.crit = analyzer.ComputeCriticalPathSerial(tr)
	}
	if mode != "" {
		s.cycles = cycles.Detect(tr, cycles.Options{})
	}
	return s
}

// groupCounts holds record counts by group bit position: event.Group is
// a uint16 of one-bit flags.
type groupCounts [16]int

// groupBit holds, per event ID, the bit position of the event's group, so
// the per-record loop of scanCore indexes two arrays. Every stored ID
// indexes it: framing rejects IDs the event table does not hold.
var groupBit = func() []uint8 {
	t := make([]uint8, event.NumIDs())
	for _, info := range event.All() {
		t[info.ID] = uint8(bits.TrailingZeros16(uint16(info.Group)))
	}
	return t
}()

// scanCore computes one core's event-level metrics by walking the
// core's stream-ordered index block against the trace's columns.
func scanCore(tr *analyzer.Trace, core uint8) (*CoreSide, groupCounts) {
	seqs := tr.CoreSeqs(core)
	s := tr.Columns()
	cs := &CoreSide{Records: len(seqs)}
	var groups groupCounts
	if len(seqs) > 0 {
		cs.WallTicks = s.Global[seqs[len(seqs)-1]] - s.Global[seqs[0]]
	}
	var waitStart uint64
	inWait := false
	for _, seq := range seqs {
		id := s.ID[seq]
		global := s.Global[seq]
		groups[groupBit[id]]++
		switch id {
		case event.SPEWaitTagEnter, event.PPEWaitTagEnter:
			inWait = true
			waitStart = global
		case event.SPEWaitTagExit, event.PPEWaitTagExit:
			if inWait {
				cs.DMAWait.Add(global - waitStart)
				inWait = false
			}
		}
	}
	return cs, groups
}

// overallConfidence mirrors the summary's confidence figure: 1.0 unless
// the trace is degraded.
func overallConfidence(tr *analyzer.Trace) float64 {
	if tr.Confidence.Overall == 0 && !tr.Confidence.Degraded() {
		return 1
	}
	return tr.Confidence.Overall
}

// assemble aligns the two sides into the report.
func assemble(a, b *Side) *Report {
	r := &Report{
		Workload: a.workload,
		RecordsA: a.records, RecordsB: b.records,
		WallA: a.wall, WallB: b.wall,
		FlushA: a.flush, FlushB: b.flush,
		ConfidenceA: a.confidence, ConfidenceB: b.confidence,
	}

	// Core alignment: union of both sides, ascending.
	seen := map[uint8]bool{}
	var cores []uint8
	for c := range a.perCore {
		if !seen[c] {
			seen[c] = true
			cores = append(cores, c)
		}
	}
	for c := range b.perCore {
		if !seen[c] {
			seen[c] = true
			cores = append(cores, c)
		}
	}
	sortCores(cores)
	for _, c := range cores {
		cd := CoreDelta{Core: c}
		if cs := a.perCore[c]; cs != nil {
			cd.A = *cs
		}
		if cs := b.perCore[c]; cs != nil {
			cd.B = *cs
		}
		cd.Flagged = flagTicks(cd.A.WallTicks, cd.B.WallTicks) ||
			flagTicks(cd.A.BusyTicks, cd.B.BusyTicks) ||
			flagTicks(cd.A.StallTicks, cd.B.StallTicks) ||
			flagTicks(cd.A.FlushTicks, cd.B.FlushTicks) ||
			flagTicks(cd.A.GapTicks, cd.B.GapTicks)
		cd.DMAFlagged = flagTicks(uint64(cd.A.DMAWait.Mean()), uint64(cd.B.DMAWait.Mean()))
		r.Cores = append(r.Cores, cd)
	}

	// Group alignment: every group, declaration order, so the report
	// shape is independent of what either trace happened to record.
	for _, g := range event.Groups() {
		bit := bits.TrailingZeros16(uint16(g))
		gd := GroupDelta{Group: g, CountA: a.groups[bit], CountB: b.groups[bit]}
		gd.Flagged = flagCount(gd.CountA, gd.CountB)
		r.Groups = append(r.Groups, gd)
	}

	r.Overhead = attribute(r)
	r.CritPath = critDelta(a.crit, b.crit)
	return r
}

// attribute splits the wall delta across overhead sources without ever
// attributing more than the total: each source claims at most what is
// left, in the direction of the total.
func attribute(r *Report) Attribution {
	at := Attribution{
		WallDeltaTicks:  r.WallDelta(),
		FlushDeltaTicks: int64(r.FlushB) - int64(r.FlushA),
		RecordDelta:     r.RecordDelta(),
	}
	remaining := at.WallDeltaTicks
	at.FlushAttributed = clampAttr(remaining, at.FlushDeltaTicks)
	remaining -= at.FlushAttributed
	// Record production cost claims the remainder only when the record
	// count moved the same way the residual wall delta did.
	if at.RecordDelta != 0 && remaining != 0 && (at.RecordDelta > 0) == (remaining > 0) {
		at.RecordAttributed = remaining
		at.PerRecordTicks = float64(at.RecordAttributed) / float64(at.RecordDelta)
		remaining = 0
	}
	at.ResidualTicks = remaining
	return at
}

// clampAttr clamps v into the interval between 0 and remaining (which
// may be negative), so a source never claims more than what is left nor
// pushes the attribution past the total in either direction.
func clampAttr(remaining, v int64) int64 {
	if remaining >= 0 {
		if v < 0 {
			return 0
		}
		if v > remaining {
			return remaining
		}
		return v
	}
	if v > 0 {
		return 0
	}
	if v < remaining {
		return remaining
	}
	return v
}

// critDelta aligns the two critical-path analyses per core.
func critDelta(a, b *analyzer.CriticalPath) CritPathDelta {
	cd := CritPathDelta{}
	if a != nil {
		cd.TotalA = a.Total
	}
	if b != nil {
		cd.TotalB = b.Total
	}
	seen := map[uint8]bool{}
	var cores []uint8
	if a != nil {
		for c := range a.CoreTicks {
			if !seen[c] {
				seen[c] = true
				cores = append(cores, c)
			}
		}
	}
	if b != nil {
		for c := range b.CoreTicks {
			if !seen[c] {
				seen[c] = true
				cores = append(cores, c)
			}
		}
	}
	sortCores(cores)
	for _, c := range cores {
		var av, bv uint64
		if a != nil {
			av = a.CoreTicks[c]
		}
		if b != nil {
			bv = b.CoreTicks[c]
		}
		cd.Cores = append(cd.Cores, CritCoreDelta{Core: c, A: av, B: bv})
	}
	return cd
}

func sortCores(cores []uint8) {
	for i := 1; i < len(cores); i++ {
		for j := i; j > 0 && cores[j] < cores[j-1]; j-- {
			cores[j], cores[j-1] = cores[j-1], cores[j]
		}
	}
}
