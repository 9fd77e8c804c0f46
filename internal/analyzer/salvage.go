package analyzer

import (
	"context"
	"fmt"

	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// Confidence estimates the fraction of tracer-produced records that
// survived into the loaded trace: 1.0 when nothing was lost, lower when
// records were dropped at trace time (full regions, failed flushes) or
// destroyed by corruption (salvaged files). Metrics derived from a
// low-confidence core understate that core's activity.
type Confidence struct {
	// Overall is the surviving fraction across the whole trace.
	Overall float64
	// PerCore is the surviving fraction per record core (SPE index or
	// PPE thread core).
	PerCore map[uint8]float64
}

// ForCore returns the confidence for one core, falling back to the
// overall figure. The zero value (a zero-value Trace's) reports full
// confidence.
func (c Confidence) ForCore(core uint8) float64 {
	if v, ok := c.PerCore[core]; ok {
		return v
	}
	if c.Overall == 0 && c.PerCore == nil {
		return 1
	}
	return c.Overall
}

// Degraded reports whether any part of the trace lost records.
func (c Confidence) Degraded() bool {
	if c.Overall != 0 && c.Overall < 1 {
		return true
	}
	for _, v := range c.PerCore {
		if v < 1 {
			return true
		}
	}
	return false
}

// computeConfidence derives per-core and overall survival fractions from
// the per-core counts of what was decoded, the trace-time drop accounting
// of the metadata, and — for salvaged loads — the salvage report's damage
// accounting. Damaged and skipped bytes are converted to an estimated
// record count using the mean size of the records that did survive.
func computeConfidence(got *[256]int, drops []traceio.Drop, rep *traceio.SalvageReport) Confidence {
	var total float64
	for _, n := range got {
		total += float64(n)
	}
	lost := map[uint8]float64{}
	var lostTotal float64
	for _, d := range drops {
		lost[uint8(d.SPE)] += float64(d.Count)
		lostTotal += float64(d.Count)
	}
	if rep != nil {
		avg := float64(event.MinRecordSize)
		if rep.RecordsRecovered > 0 && rep.BytesRecovered > 0 {
			avg = float64(rep.BytesRecovered) / float64(rep.RecordsRecovered)
		}
		// Ascending core order, not map order: float addition is not
		// associative, and equal inputs must give equal bytes.
		for core := range got {
			if cs := rep.PerCore[uint8(core)]; cs != nil && cs.BytesDamaged > 0 {
				est := float64(cs.BytesDamaged) / avg
				lost[uint8(core)] += est
				lostTotal += est
			}
		}
		if rep.BytesSkipped > 0 {
			// Unidentifiable bytes cannot be attributed to a core; they
			// lower only the overall figure.
			lostTotal += float64(rep.BytesSkipped) / avg
		}
	}

	c := Confidence{Overall: 1, PerCore: map[uint8]float64{}}
	if total+lostTotal > 0 {
		c.Overall = total / (total + lostTotal)
	}
	for core, n := range got {
		if n == 0 {
			continue
		}
		c.PerCore[uint8(core)] = 1
		if l := lost[uint8(core)]; l > 0 {
			c.PerCore[uint8(core)] = float64(n) / (float64(n) + l)
		}
	}
	for core, l := range lost {
		if got[core] == 0 && l > 0 {
			c.PerCore[core] = 0 // everything this core produced is gone
		}
	}
	return c
}

// confidence computes the loaded trace's Confidence; the per-core index
// already holds the counts. rep is nil unless the load was a salvage.
func (tr *Trace) confidence(rep *traceio.SalvageReport) Confidence {
	var got [256]int
	for core, seqs := range tr.coreSeq {
		got[core] = len(seqs)
	}
	return computeConfidence(&got, tr.Meta.Drops, rep)
}

// FromSalvaged merges a salvaged trace file: FromFile, then the salvage
// report folded into Trace.Issues and a Confidence that reflects the
// reported damage. Salvage hands over only chunks that frame whole and
// can be placed, so the load is the strict one. rep may be nil (a plain
// FromFile).
func FromSalvaged(f *traceio.File, rep *traceio.SalvageReport) (*Trace, error) {
	return FromSalvagedContext(context.Background(), f, rep, Limits{})
}

// FromSalvagedContext is FromSalvaged under cancellation and admission
// control: FromFileContext plus the report fold.
func FromSalvagedContext(ctx context.Context, f *traceio.File, rep *traceio.SalvageReport, lim Limits) (*Trace, error) {
	tr, err := FromFileContext(ctx, f, lim)
	if err != nil {
		return nil, err
	}
	if rep != nil {
		foldSalvageReport(tr, rep)
		tr.Confidence = tr.confidence(rep)
	}
	return tr, nil
}

// foldSalvageReport records the salvage findings as trace issues.
func foldSalvageReport(tr *Trace, rep *traceio.SalvageReport) {
	add := func(sev, format string, args ...interface{}) {
		tr.Issues = append(tr.Issues, Issue{sev, fmt.Sprintf(format, args...)})
	}
	if !rep.HeaderOK {
		add("error", "salvage: file header unreadable; layout assumed")
	}
	if !rep.MetaOK {
		add("error", "salvage: metadata lost; SPE chunks could not be anchored")
	}
	if !rep.FooterOK {
		add("warn", "salvage: footer missing or file checksum mismatched")
	}
	if rep.ChunksDamaged > 0 {
		add("warn", "salvage: %d damaged chunk(s) trimmed to their decodable prefix (%d bytes discarded)",
			rep.ChunksDamaged, rep.BytesDamaged)
	}
	if rep.ChunksDropped > 0 {
		add("error", "salvage: %d chunk(s) dropped entirely", rep.ChunksDropped)
	}
	if rep.BytesSkipped > 0 {
		add("warn", "salvage: %d unidentifiable byte(s) skipped while resynchronizing (%d resync(s))",
			rep.BytesSkipped, rep.Resyncs)
	}
}
