package diff_test

// Property suite for the diff engine. Three algebraic properties anchor
// it: Diff(t, t) is identically zero, Diff(a, b) negates under argument
// swap, and the parallel Diff is DeepEqual to DiffSerial — each checked
// for every registered workload. FuzzDiff drives salvaged/truncated
// inputs through the kernel and asserts it never panics and never
// attributes more ticks than the total wall delta.

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/diff"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/harness"
	"github.com/celltrace/pdt/internal/workloads"
)

// traceWithGroups runs a workload with the given event groups enabled
// and loads the result.
func traceWithGroups(t *testing.T, name string, groups event.Group) *analyzer.Trace {
	t.Helper()
	cfg := core.DefaultTraceConfig()
	cfg.Groups = groups
	res, err := harness.Run(harness.Spec{Workload: name, Params: workloads.Small(name), Trace: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := analyzer.Load(bytes.NewReader(res.TraceBytes))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkAttribution asserts the attribution invariant: the rows and the
// residual sum exactly to the wall delta, no row over-attributes, and
// every attributed row carries the sign of the total.
func checkAttribution(t *testing.T, o diff.Attribution) {
	t.Helper()
	if o.FlushAttributed+o.RecordAttributed+o.ResidualTicks != o.WallDeltaTicks {
		t.Errorf("attribution does not sum to the total: %+d + %+d + %+d != %+d",
			o.FlushAttributed, o.RecordAttributed, o.ResidualTicks, o.WallDeltaTicks)
	}
	if abs(o.FlushAttributed)+abs(o.RecordAttributed) > abs(o.WallDeltaTicks) {
		t.Errorf("attributed more than the total delta: |%+d| + |%+d| > |%+d|",
			o.FlushAttributed, o.RecordAttributed, o.WallDeltaTicks)
	}
	for _, v := range []int64{o.FlushAttributed, o.RecordAttributed} {
		if v != 0 && (v > 0) != (o.WallDeltaTicks > 0) {
			t.Errorf("attributed row %+d fights the total's sign (%+d)", v, o.WallDeltaTicks)
		}
	}
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// swapped builds the report Diff(b, a) must produce from the report
// Diff(a, b) produced: every A/B pair exchanged. The flag bits stay as
// they are — the effect-size gate is symmetric by construction.
func swapped(r *diff.Report) *diff.Report {
	s := *r
	s.RecordsA, s.RecordsB = r.RecordsB, r.RecordsA
	s.WallA, s.WallB = r.WallB, r.WallA
	s.FlushA, s.FlushB = r.FlushB, r.FlushA
	s.ConfidenceA, s.ConfidenceB = r.ConfidenceB, r.ConfidenceA
	s.Cores = append([]diff.CoreDelta(nil), r.Cores...)
	for i := range s.Cores {
		s.Cores[i].A, s.Cores[i].B = s.Cores[i].B, s.Cores[i].A
	}
	s.Groups = append([]diff.GroupDelta(nil), r.Groups...)
	for i := range s.Groups {
		s.Groups[i].CountA, s.Groups[i].CountB = s.Groups[i].CountB, s.Groups[i].CountA
	}
	o := r.Overhead
	s.Overhead = diff.Attribution{
		WallDeltaTicks:  -o.WallDeltaTicks,
		FlushDeltaTicks: -o.FlushDeltaTicks, FlushAttributed: -o.FlushAttributed,
		RecordDelta: -o.RecordDelta, RecordAttributed: -o.RecordAttributed,
		PerRecordTicks: o.PerRecordTicks, ResidualTicks: -o.ResidualTicks,
	}
	s.CritPath = diff.CritPathDelta{
		TotalA: r.CritPath.TotalB, TotalB: r.CritPath.TotalA,
		Cores: append([]diff.CritCoreDelta(nil), r.CritPath.Cores...),
	}
	for i := range s.CritPath.Cores {
		s.CritPath.Cores[i].A, s.CritPath.Cores[i].B = s.CritPath.Cores[i].B, s.CritPath.Cores[i].A
	}
	return &s
}

// TestDiffPropertiesAllWorkloads runs every registered workload with a
// reduced and a full event-group configuration and checks, per workload:
// self-diff is identically zero, argument swap negates every delta,
// the parallel kernel is DeepEqual to the serial reference (under -race
// this also proves the shards are disjoint), and the attribution
// invariant holds on a real nonzero delta.
func TestDiffPropertiesAllWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			reduced := traceWithGroups(t, name, event.GroupLifecycle|event.GroupMFC)
			full := traceWithGroups(t, name, event.GroupAll)

			// Self-diff: identically zero, on both implementations.
			self, err := diff.Diff(full, full, diff.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !self.Zero() {
				t.Errorf("Diff(t, t) is not identically zero: %+v", self)
			}
			selfSerial, err := diff.DiffSerial(full, full, diff.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !selfSerial.Zero() {
				t.Errorf("DiffSerial(t, t) is not identically zero: %+v", selfSerial)
			}

			// Parallel/serial equivalence on a real delta.
			rep, err := diff.Diff(reduced, full, diff.Options{})
			if err != nil {
				t.Fatal(err)
			}
			repSerial, err := diff.DiffSerial(reduced, full, diff.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, repSerial) {
				t.Errorf("Diff differs from DiffSerial:\nparallel %+v\nserial   %+v", rep, repSerial)
			}

			// Antisymmetry: Diff(b, a) is exactly the swapped report.
			rev, err := diff.Diff(full, reduced, diff.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if want := swapped(rep); !reflect.DeepEqual(rev, want) {
				t.Errorf("Diff(b, a) is not the negation of Diff(a, b):\ngot  %+v\nwant %+v", rev, want)
			}

			checkAttribution(t, rep.Overhead)
			checkAttribution(t, rev.Overhead)

			// The full-instrumentation side must actually carry more
			// records — otherwise this test isn't exercising a real delta.
			if rep.RecordDelta() <= 0 {
				t.Errorf("full config produced no extra records (%d -> %d)", rep.RecordsA, rep.RecordsB)
			}
		})
	}
}

func TestDiffWorkloadMismatch(t *testing.T) {
	a := traceWithGroups(t, "julia", event.GroupAll)
	b := traceWithGroups(t, "matmul", event.GroupAll)
	if _, err := diff.Diff(a, b, diff.Options{}); err == nil {
		t.Fatal("expected a workload-mismatch error")
	} else if !errors.Is(err, diff.ErrWorkloadMismatch) {
		t.Fatalf("expected ErrWorkloadMismatch, got %v", err)
	}
}

// TestCompareDerivedSidesEqualsDiff: comparing two sides derived one at
// a time is Diff of their traces in every mode, a side derived without
// cycles cannot serve a cycle mode, and a mismatch still outranks a bad
// mode.
func TestCompareDerivedSidesEqualsDiff(t *testing.T) {
	a := traceWithGroups(t, "pipeline", event.GroupAll)
	b := traceWithGroups(t, "pipeline", event.GroupAll&^event.GroupMailbox)
	for _, mode := range []string{"", diff.ModeMatch, diff.ModeAlign} {
		want, err := diff.Diff(a, b, diff.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		got, err := diff.Compare(diff.DeriveSide(a, mode), diff.DeriveSide(b, mode), diff.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("mode %q: Compare of derived sides differs from Diff", mode)
		}
	}
	if _, err := diff.Compare(diff.DeriveSide(a, ""), diff.DeriveSide(b, ""), diff.Options{Mode: diff.ModeMatch}); err == nil {
		t.Error("sides derived without cycles served a cycle mode")
	}
	if _, err := diff.Compare(diff.DeriveSide(a, "bogus"), diff.DeriveSide(b, "bogus"), diff.Options{Mode: "bogus"}); !errors.Is(err, diff.ErrBadMode) {
		t.Errorf("bad mode: got %v, want ErrBadMode", err)
	}
	other := traceWithGroups(t, "julia", event.GroupAll)
	if _, err := diff.Compare(diff.DeriveSide(a, "bogus"), diff.DeriveSide(other, "bogus"), diff.Options{Mode: "bogus"}); !errors.Is(err, diff.ErrWorkloadMismatch) {
		t.Errorf("mismatch with a bad mode: got %v, want ErrWorkloadMismatch", err)
	}
}

func TestDiffNilTrace(t *testing.T) {
	tr := traceWithGroups(t, "synthetic", event.GroupAll)
	if _, err := diff.Diff(nil, tr, diff.Options{}); err == nil {
		t.Error("Diff(nil, t) should error")
	}
	if _, err := diff.Diff(tr, nil, diff.Options{}); err == nil {
		t.Error("Diff(t, nil) should error")
	}
}

// buildFuzzTrace produces a structurally valid trace image for mutation
// (same shape as the traceio and pdt-tad fuzz bases, with two cores so
// core alignment is exercised).
func buildFuzzTrace(tb testing.TB) []byte {
	tb.Helper()
	var out bytes.Buffer
	w, err := traceio.NewWriter(&out, traceio.Header{
		Version: traceio.Version, NumSPEs: 8, TimebaseDiv: 40, ClockHz: 3_200_000_000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.WriteMeta(&traceio.Meta{
		Workload: "fuzz",
		Anchors: []traceio.Anchor{
			{SPE: 0, Timebase: 100, Loaded: 0xFFFFFFFF, Program: "p"},
			{SPE: 1, Timebase: 120, Loaded: 0xFFFFFFFF, Program: "p"},
		},
	}); err != nil {
		tb.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		var data []byte
		for i := 0; i < 30; i++ {
			r := event.Record{ID: event.SPEMFCGet, Core: uint8(c), Flags: event.FlagDecrTime,
				Time: uint64(i * 10), Args: []uint64{0, 64, 128, uint64(i % 16)}}
			data, err = r.AppendTo(data)
			if err != nil {
				tb.Fatal(err)
			}
		}
		if err := w.WriteChunk(traceio.Chunk{Core: uint8(c), AnchorIdx: uint16(c), Data: data}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// FuzzDiff mutates one side of a diff (flip, insert, delete, truncate —
// the FuzzSalvage operation set), salvages it, and diffs it against the
// pristine base: the kernel must never panic, the parallel and serial
// results must agree, self-diff of the salvaged side must stay zero,
// and attribution must never exceed the total wall delta.
func FuzzDiff(f *testing.F) {
	f.Add(uint32(0), uint8(0), uint8(0x5A), uint16(0))
	f.Add(uint32(30), uint8(1), uint8(0xC5), uint16(0))
	f.Add(uint32(60), uint8(2), uint8(0), uint16(0))
	f.Add(uint32(100), uint8(0), uint8(0xFF), uint16(50))
	f.Add(uint32(0), uint8(3), uint8(0), uint16(9))

	f.Fuzz(func(t *testing.T, pos uint32, op, val uint8, cut uint16) {
		valid := buildFuzzTrace(t)
		base, err := analyzer.Load(bytes.NewReader(valid))
		if err != nil {
			t.Fatal(err)
		}
		data := append([]byte(nil), valid...)
		p := int(pos) % len(data)
		switch op % 4 {
		case 0: // flip
			data[p] ^= val | 1
		case 1: // insert
			data = append(data[:p], append([]byte{val}, data[p:]...)...)
		case 2: // delete
			data = append(data[:p], data[p+1:]...)
		case 3: // truncate from the end
			n := int(cut) % (len(data) + 1)
			data = data[:len(data)-n]
		}
		if int(cut) > 0 && op%4 != 3 {
			n := int(cut) % (len(data) + 1)
			data = data[:len(data)-n]
		}

		d := analyzer.DoctorData(data)
		if d == nil || d.Trace == nil {
			return // nothing recoverable; no trace to diff
		}
		mut := d.Trace

		self, err := diff.Diff(mut, mut, diff.Options{})
		if err != nil {
			t.Fatalf("self-diff of a salvaged trace errored: %v", err)
		}
		if !self.Zero() {
			t.Errorf("self-diff of a salvaged trace is not zero: %+v", self)
		}

		rep, err := diff.Diff(base, mut, diff.Options{})
		if err != nil {
			return // e.g. the mutation destroyed the workload name
		}
		repSerial, err := diff.DiffSerial(base, mut, diff.Options{})
		if err != nil {
			t.Fatalf("Diff succeeded but DiffSerial errored: %v", err)
		}
		if !reflect.DeepEqual(rep, repSerial) {
			t.Errorf("parallel and serial diffs disagree on salvaged input")
		}
		checkAttribution(t, rep.Overhead)
	})
}
