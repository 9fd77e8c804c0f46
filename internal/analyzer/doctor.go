package analyzer

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/celltrace/pdt/internal/core/traceio"
)

// DoctorReport bundles everything `pdt-ta doctor` learns about a damaged
// trace: the byte-level salvage accounting, the trace rebuilt from the
// surviving chunks, and the structural validation of that rebuilt stream.
type DoctorReport struct {
	// Salvage is the byte-level recovery accounting; nil only when the
	// input could not be read at all.
	Salvage *traceio.SalvageReport
	// Trace is the analyzer view of the surviving records; nil when
	// nothing was recoverable or the load itself failed.
	Trace *Trace
	// Validation holds the structural findings on the recovered stream.
	Validation []Issue
	// SalvageErr is the terminal salvage failure (traceio.ErrUnsalvageable
	// wrapped), LoadErr a failure turning the salvaged file into a trace.
	SalvageErr error
	LoadErr    error
}

// Recoverable reports whether any usable trace data survived.
func (d *DoctorReport) Recoverable() bool {
	return d.SalvageErr == nil && d.LoadErr == nil && d.Trace != nil
}

// DoctorFileContext runs the recovery pipeline on a trace file on disk,
// under cancellation and admission control.
func DoctorFileContext(ctx context.Context, path string, lim Limits) (*DoctorReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DoctorDataContext(ctx, data, lim)
}

// DoctorData salvages a raw trace image, loads the survivors, and
// validates the result. The report is always non-nil; inspect
// Recoverable for the verdict.
func DoctorData(data []byte) *DoctorReport {
	d, _ := DoctorDataContext(context.Background(), data, Limits{})
	return d
}

// DoctorDataContext is DoctorData under cancellation and admission
// control; unlike recoverable damage, a cancelled context or an input
// over the limits is a hard error (nil report).
func DoctorDataContext(ctx context.Context, data []byte, lim Limits) (*DoctorReport, error) {
	if lim.MaxFileBytes > 0 && int64(len(data)) > lim.MaxFileBytes {
		return nil, fmt.Errorf("%w: doctor input %d bytes over limit %d",
			ErrLimitExceeded, len(data), lim.MaxFileBytes)
	}
	d := &DoctorReport{}
	f, rep, err := traceio.SalvageContext(ctx, data)
	d.Salvage = rep
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		d.SalvageErr = err
		return d, nil
	}
	tr, err := FromSalvagedContext(ctx, f, rep, lim)
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, ErrLimitExceeded) {
			return nil, err
		}
		d.LoadErr = err
		return d, nil
	}
	d.Trace = tr
	d.Validation = Validate(tr)
	return d, nil
}

// Verdict returns the one-word assessment Write prints: UNREADABLE,
// UNRECOVERABLE, CLEAN, or RECOVERED.
func (d *DoctorReport) Verdict() string {
	switch {
	case d.Salvage == nil:
		return "UNREADABLE"
	case d.SalvageErr != nil || d.LoadErr != nil:
		return "UNRECOVERABLE"
	}
	errs := 0
	for _, is := range d.Validation {
		if is.Severity == "error" {
			errs++
		}
	}
	if d.Salvage.Clean() && errs == 0 {
		return "CLEAN"
	}
	return "RECOVERED"
}

// jsonDoctor is the machine-readable shape of a DoctorReport, served by
// pdt-tad's /v1/doctor endpoint.
type jsonDoctor struct {
	Verdict     string                 `json:"verdict"`
	Recoverable bool                   `json:"recoverable"`
	Salvage     *traceio.SalvageReport `json:"salvage,omitempty"`
	SalvageErr  string                 `json:"salvageError,omitempty"`
	LoadErr     string                 `json:"loadError,omitempty"`
	Events      int                    `json:"events,omitempty"`
	Runs        int                    `json:"runs,omitempty"`
	Confidence  float64                `json:"confidence,omitempty"`
	Validation  []string               `json:"validation,omitempty"`
}

// WriteJSON renders the doctor report as JSON.
func (d *DoctorReport) WriteJSON(w io.Writer) error {
	out := jsonDoctor{
		Verdict:     d.Verdict(),
		Recoverable: d.Recoverable(),
		Salvage:     d.Salvage,
	}
	if d.SalvageErr != nil {
		out.SalvageErr = d.SalvageErr.Error()
	}
	if d.LoadErr != nil {
		out.LoadErr = d.LoadErr.Error()
	}
	if d.Trace != nil {
		out.Events = d.Trace.NumEvents()
		out.Runs = len(d.Trace.Meta.Anchors)
		out.Confidence = d.Trace.Confidence.Overall
	}
	for _, is := range d.Validation {
		out.Validation = append(out.Validation, is.String())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

// Write renders the doctor report for humans.
func (d *DoctorReport) Write(w io.Writer) {
	rep := d.Salvage
	if rep == nil {
		fmt.Fprintln(w, "verdict: UNREADABLE — no salvage was attempted")
		return
	}
	status := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "DAMAGED"
	}
	fmt.Fprintf(w, "header:   %s\n", status(rep.HeaderOK))
	fmt.Fprintf(w, "metadata: %s\n", status(rep.MetaOK))
	fmt.Fprintf(w, "footer:   %s\n", status(rep.FooterOK))
	fmt.Fprintf(w, "bytes:    %d total = %d structural + %d recovered + %d damaged + %d skipped\n",
		rep.BytesTotal, rep.BytesStructural, rep.BytesRecovered, rep.BytesDamaged, rep.BytesSkipped)
	fmt.Fprintf(w, "chunks:   %d recovered, %d damaged (trimmed), %d dropped; %d records; %d resync(s)\n",
		rep.ChunksRecovered, rep.ChunksDamaged, rep.ChunksDropped, rep.RecordsRecovered, rep.Resyncs)

	if len(rep.PerCore) > 0 {
		cores := make([]int, 0, len(rep.PerCore))
		for c := range rep.PerCore {
			cores = append(cores, int(c))
		}
		sort.Ints(cores)
		fmt.Fprintf(w, "\n%-6s %9s %8s %8s %9s %10s %10s\n",
			"core", "recovered", "damaged", "dropped", "records", "bytes-ok", "bytes-bad")
		for _, c := range cores {
			cs := rep.PerCore[uint8(c)]
			fmt.Fprintf(w, "%-6d %9d %8d %8d %9d %10d %10d\n",
				c, cs.ChunksRecovered, cs.ChunksDamaged, cs.ChunksDropped,
				cs.RecordsRecovered, cs.BytesRecovered, cs.BytesDamaged)
		}
	}

	if len(rep.Notes) > 0 {
		fmt.Fprintf(w, "\nfindings:\n")
		for _, n := range rep.Notes {
			fmt.Fprintf(w, "  %s\n", n)
		}
	}

	switch {
	case d.SalvageErr != nil:
		fmt.Fprintf(w, "\nverdict: UNRECOVERABLE — %v\n", d.SalvageErr)
		return
	case d.LoadErr != nil:
		fmt.Fprintf(w, "\nverdict: UNRECOVERABLE — salvaged chunks did not load: %v\n", d.LoadErr)
		return
	}

	tr := d.Trace
	fmt.Fprintf(w, "\nrecovered trace: %d events across %d run(s)\n",
		tr.NumEvents(), len(tr.Meta.Anchors))
	fmt.Fprintf(w, "confidence: %.1f%% overall", 100*tr.Confidence.Overall)
	if len(tr.Confidence.PerCore) > 0 {
		cores := make([]int, 0, len(tr.Confidence.PerCore))
		for c := range tr.Confidence.PerCore {
			cores = append(cores, int(c))
		}
		sort.Ints(cores)
		fmt.Fprint(w, " (")
		for i, c := range cores {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "core %d: %.1f%%", c, 100*tr.Confidence.PerCore[uint8(c)])
		}
		fmt.Fprint(w, ")")
	}
	fmt.Fprintln(w)
	errs, warns := 0, 0
	for _, is := range d.Validation {
		if is.Severity == "error" {
			errs++
		} else {
			warns++
		}
	}
	fmt.Fprintf(w, "validation: %d error(s), %d warning(s) on the recovered stream\n", errs, warns)
	if rep.Clean() && errs == 0 {
		fmt.Fprintln(w, "verdict: CLEAN — no damage found")
	} else {
		fmt.Fprintln(w, "verdict: RECOVERED — partial trace is usable")
	}
}
