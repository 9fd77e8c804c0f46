// pdt-ta is the trace analyzer CLI: it loads a PDT trace and prints
// summaries, timelines, or machine-readable exports.
//
// Usage:
//
//	pdt-ta summary trace.pdt
//	pdt-ta profile -json trace.pdt
//	pdt-ta report trace.pdt
//	pdt-ta timeline -width 100 trace.pdt
//	pdt-ta svg -o timeline.svg trace.pdt
//	pdt-ta csv trace.pdt > events.csv
//	pdt-ta json trace.pdt
//	pdt-ta validate trace.pdt
//	pdt-ta doctor damaged.pdt
//	pdt-ta events -n 50 trace.pdt
//	pdt-ta html -o report.html trace.pdt
//	pdt-ta slack trace.pdt
//	pdt-ta bw -n 20 trace.pdt
//	pdt-ta compare before.pdt after.pdt
//	pdt-ta diff baseline.pdt instrumented.pdt
//	pdt-ta diff -mode align before.pdt after.pdt
//	pdt-ta cycles trace.pdt
//
// The analysis kinds (summary, profile, gaps, critpath, cycles) come from
// internal/analyzer/kinds: each prints text, or with -json the bytes
// pdt-tad's POST /v1/<kind> serves.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/diff"
	"github.com/celltrace/pdt/internal/analyzer/kinds"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// exitTimeout is the distinct status for a run killed by -timeout, so
// scripts can tell "analysis hung or was too slow" (3) apart from
// ordinary failures (1).
const exitTimeout = 3

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pdt-ta:", err)
		if errors.Is(err, context.DeadlineExceeded) {
			os.Exit(exitTimeout)
		}
		os.Exit(1)
	}
}

// loadFriendly loads a trace, pointing the user at `pdt-ta doctor` when
// the file is damaged rather than dumping a raw parse error.
func loadFriendly(ctx context.Context, path string) (*analyzer.Trace, error) {
	tr, err := analyzer.LoadFileContext(ctx, path, analyzer.Limits{})
	if err != nil && traceio.IsCorrupt(err) {
		return nil, fmt.Errorf("%s looks damaged (%v) — try `pdt-ta doctor %s` to recover what survives", path, err, path)
	}
	return tr, err
}

// report prints the combined report: summary, interval profile, gaps, and
// critical path in one pass over the file. Validation runs first (it
// mutates tr.Issues and must be exclusive); the four analyses after it are
// independent reads of the immutable trace and run concurrently, so the
// combined report costs about as much wall-clock as its slowest section.
func report(tr *analyzer.Trace, out io.Writer) error {
	analyzer.Validate(tr)
	// The sections, in kinds.All order, under the headings they have
	// always had; a kind without a heading (cycles) is not in the report.
	headings := map[string]string{
		"summary": "", "profile": "\ninterval profile:\n", "gaps": "\n", "critpath": "\n",
	}
	vals := make([]any, len(kinds.All))
	var wg sync.WaitGroup
	for i, k := range kinds.All {
		if _, ok := headings[k.Name]; ok {
			wg.Add(1)
			go func() { defer wg.Done(); vals[i] = k.Compute(tr) }()
		}
	}
	wg.Wait()
	for i, k := range kinds.All {
		if heading, ok := headings[k.Name]; ok {
			fmt.Fprint(out, heading)
			k.Text(tr, vals[i], 0, out)
		}
	}
	return nil
}

func usage() error {
	names := make([]string, len(kinds.All))
	for i, k := range kinds.All {
		names[i] = k.Name
	}
	return fmt.Errorf("usage: pdt-ta <%s|report|timeline|svg|html|csv|json|validate|doctor|events|tags|intervals|slack|bw|compensate|compare|diff> [flags] trace.pdt [trace2.pdt]", strings.Join(names, "|"))
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return usage()
	}
	cmd, rest := args[0], args[1:]

	fs := flag.NewFlagSet("pdt-ta "+cmd, flag.ContinueOnError)
	width := fs.Int("width", 100, "timeline width in characters (timeline)")
	pxWidth := fs.Int("px", 900, "timeline width in pixels (svg)")
	svgOut := fs.String("o", "", "output path (svg; empty = stdout)")
	maxEvents := fs.Int("n", 0, "max events to print (events; 0 = all)")
	gapTicks := fs.Int("min", 0, "minimum gap ticks (gaps; 0 = auto threshold)")
	asJSON := fs.Bool("json", false, "emit JSON instead of text (every analysis kind, and diff)")
	mode := fs.String("mode", "", "per-cycle diff mode: match or align (diff; empty = off)")
	follow := fs.Bool("follow", false, "tail a still-growing trace (pdt-run -live) and report when it seals (summary)")
	poll := fs.Duration("poll", 500*time.Millisecond, "file poll interval in follow mode")
	idle := fs.Duration("idle", 0, "give up and report after the file stops growing for this long (follow; 0 = wait forever)")
	timeout := fs.Duration("timeout", 0, "abort the whole command after this wall-clock duration (exit status 3)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	wantArgs := 1
	if cmd == "compare" || cmd == "diff" {
		wantArgs = 2
	}
	if fs.NArg() != wantArgs {
		return usage()
	}
	if *follow {
		if cmd != "summary" {
			return errors.New("-follow only applies to `pdt-ta summary`")
		}
		return followSummary(ctx, fs.Arg(0), *poll, *idle, out)
	}
	if cmd == "doctor" {
		rep, err := analyzer.DoctorFileContext(ctx, fs.Arg(0), analyzer.Limits{})
		if err != nil {
			return err
		}
		rep.Write(out)
		if !rep.Recoverable() {
			return fmt.Errorf("nothing recoverable in %s", fs.Arg(0))
		}
		return nil
	}
	tr, err := loadFriendly(ctx, fs.Arg(0))
	if err != nil {
		return err
	}
	if cmd == "json" { // the historical spelling of `summary -json`
		cmd, *asJSON = "summary", true
	}
	if k, ok := kinds.Lookup(cmd); ok {
		analyzer.Validate(tr)
		var v any
		if min := uint64(*gapTicks); cmd == "gaps" && min > 0 {
			v = kinds.GapReport{Min: min, Gaps: analyzer.FindGaps(tr, min)}
		} else {
			v = k.Compute(tr)
		}
		if *asJSON {
			return k.JSON(tr, v, out)
		}
		k.Text(tr, v, *maxEvents, out)
		return nil
	}

	switch cmd {
	case "compare":
		tr2, err := loadFriendly(ctx, fs.Arg(1))
		if err != nil {
			return err
		}
		c := analyzer.Compare(analyzer.Summarize(tr), analyzer.Summarize(tr2))
		analyzer.RenderComparison(c, "A:"+fs.Arg(0), "B:"+fs.Arg(1), out)
		return nil
	case "diff":
		tr2, err := loadFriendly(ctx, fs.Arg(1))
		if err != nil {
			return err
		}
		rep, err := diff.Diff(tr, tr2, diff.Options{Mode: *mode})
		if err != nil {
			return err
		}
		if *asJSON {
			return rep.WriteJSON(out)
		}
		rep.Write(out)
		return nil
	case "html":
		analyzer.Validate(tr)
		var buf bytes.Buffer
		if err := analyzer.WriteHTML(tr, analyzer.Summarize(tr), &buf); err != nil {
			return err
		}
		if *svgOut == "" {
			_, err := out.Write(buf.Bytes())
			return err
		}
		return os.WriteFile(*svgOut, buf.Bytes(), 0o644)
	case "slack":
		fmt.Fprintf(out, "%-4s %-4s %8s %14s %14s %14s\n",
			"run", "core", "waits", "mean slack", "max slack", "mean wait")
		for run := range tr.Meta.Anchors {
			if len(tr.RunSeqs(run)) == 0 {
				continue // no surviving events: a cut trace, like compensate
			}
			st := analyzer.DMASlack(tr, run)
			fmt.Fprintf(out, "%-4d %-4d %8d %14.1f %14d %14.1f\n",
				st.Run, st.Core, st.Waits, st.Slack.Mean(), st.Slack.Max, st.WaitDur.Mean())
		}
		return nil
	case "tags":
		fmt.Fprintf(out, "%-4s %8s %14s\n", "tag", "cmds", "bytes")
		for _, ts := range analyzer.TagBreakdown(tr) {
			fmt.Fprintf(out, "%-4d %8d %14d\n", ts.Tag, ts.Cmds, ts.Bytes)
		}
		return nil
	case "compensate":
		analyzer.WriteCompensation(tr, out)
		return nil
	case "intervals":
		return analyzer.WriteIntervalsCSV(tr, out)
	case "bw":
		n := *maxEvents
		if n <= 0 {
			n = 20
		}
		for _, p := range analyzer.BandwidthSeries(tr, n) {
			fmt.Fprintf(out, "%12d %12d\n", p.StartTick, p.Bytes)
		}
		return nil
	}

	switch cmd {
	case "report":
		return report(tr, out)
	case "timeline":
		fmt.Fprint(out, analyzer.Timeline(tr, *width))
	case "svg":
		svg := analyzer.SVGTimeline(tr, *pxWidth)
		if *svgOut == "" {
			fmt.Fprint(out, svg)
			return nil
		}
		return os.WriteFile(*svgOut, []byte(svg), 0o644)
	case "csv":
		return analyzer.WriteCSV(tr, out)
	case "validate":
		issues := analyzer.Validate(tr)
		if len(issues) == 0 {
			fmt.Fprintf(out, "OK: %d events, no issues\n", tr.NumEvents())
			return nil
		}
		for _, is := range issues {
			fmt.Fprintln(out, is)
		}
		if len(analyzer.Errors(issues)) > 0 {
			return fmt.Errorf("%d errors", len(analyzer.Errors(issues)))
		}
	case "events":
		s := tr.Columns()
		for i, n := 0, tr.NumEvents(); i < n; i++ {
			if *maxEvents > 0 && i >= *maxEvents {
				fmt.Fprintf(out, "... %d more\n", n-i)
				break
			}
			rec := s.Record(i)
			fmt.Fprintf(out, "%8d %s\n", s.Global[i], rec.String())
		}
	default:
		return usage()
	}
	return nil
}
