// Package kinds is the one table of served analysis kinds: for each, the
// kernel that computes it from a loaded trace, where a streamed load
// keeps the same value if it folds one, and the two renderings of the
// result. The cache's Render, pdt-tad's POST /v1/<kind> routes, job API
// and chunked-upload adoption, pdt-ta's <kind> subcommands, report and
// -follow, and pdt-load's -kinds all read it, so what a kind returns is
// decided here and nowhere else.
//
// It is a leaf package because cycles imports analyzer (the table cannot
// live there) and pdt-ta must not import the cache to print text.
//
// doctor and diff are deliberately not kinds: doctor's input is the raw
// image, not a loaded trace (it must work when the strict load fails),
// and diff takes two traces.
package kinds

import (
	"io"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cycles"
)

// Kind is one analysis view over a loaded, validated trace.
type Kind struct {
	// Name is the subcommand, the /v1/<Name> route and the artifact kind.
	Name string
	// Compute runs the kernel. The result is immutable and may be
	// handed to JSON and Text any number of times.
	Compute func(tr *analyzer.Trace) any
	// FromStream, when set, reads the value Compute would return off a
	// StreamLoader's result: the kinds whose kernel the stream folds. It
	// is nil for the kinds that need the whole trace in memory.
	FromStream func(r *analyzer.StreamResult) any
	// JSON renders a Compute result as the canonical artifact: the bytes
	// POST /v1/<Name> serves and `pdt-ta <Name> -json` prints.
	JSON func(tr *analyzer.Trace, v any, w io.Writer) error
	// Text renders a Compute result for a terminal. top bounds the rows
	// of kinds that list their largest items (0 = the kind's default);
	// the others ignore it.
	Text func(tr *analyzer.Trace, v any, top int, w io.Writer)
}

// of builds a Kind from functions written against the kernel's real
// result type; the any→T assertion happens here and nowhere else. A nil
// fromStream leaves the kind batch-only.
func of[T any](
	name string,
	compute func(*analyzer.Trace) T,
	fromStream func(*analyzer.StreamResult) T,
	json func(*analyzer.Trace, T, io.Writer) error,
	text func(*analyzer.Trace, T, int, io.Writer),
) Kind {
	k := Kind{
		Name:    name,
		Compute: func(tr *analyzer.Trace) any { return compute(tr) },
		JSON:    func(tr *analyzer.Trace, v any, w io.Writer) error { return json(tr, v.(T), w) },
		Text:    func(tr *analyzer.Trace, v any, top int, w io.Writer) { text(tr, v.(T), top, w) },
	}
	if fromStream != nil {
		k.FromStream = func(r *analyzer.StreamResult) any { return fromStream(r) }
	}
	return k
}

// GapReport is the gaps kind's value: the event-free stretches of at
// least Min ticks. Compute picks Min with SuggestGapThreshold; a caller
// with its own threshold (pdt-ta gaps -min) builds one directly.
type GapReport struct {
	Min  uint64
	Gaps []analyzer.Gap
}

// All lists the kinds in the order pdt-ta report prints them and
// cache.AnalysisKinds names them.
var All = []Kind{
	of("summary", analyzer.Summarize,
		func(r *analyzer.StreamResult) *analyzer.Summary { return r.Summary },
		analyzer.WriteJSON,
		func(tr *analyzer.Trace, s *analyzer.Summary, _ int, w io.Writer) { analyzer.Report(tr, s, w) }),
	of("profile", analyzer.Profile,
		func(r *analyzer.StreamResult) []analyzer.PairProfile { return r.Profile },
		analyzer.WriteProfilePairsJSON,
		func(tr *analyzer.Trace, pairs []analyzer.PairProfile, _ int, w io.Writer) {
			analyzer.WriteProfilePairs(tr, pairs, w)
		}),
	of("gaps",
		func(tr *analyzer.Trace) GapReport {
			min := analyzer.SuggestGapThreshold(tr)
			return GapReport{Min: min, Gaps: analyzer.FindGaps(tr, min)}
		},
		nil,
		func(_ *analyzer.Trace, g GapReport, w io.Writer) error {
			return analyzer.WriteGapsJSON(g.Min, g.Gaps, w)
		},
		func(_ *analyzer.Trace, g GapReport, top int, w io.Writer) {
			analyzer.WriteGapsFound(g.Min, g.Gaps, orDefault(top, 15), w)
		}),
	of("critpath", analyzer.ComputeCriticalPath, nil,
		func(_ *analyzer.Trace, cp *analyzer.CriticalPath, w io.Writer) error {
			return analyzer.WriteCriticalPathJSON(cp, w)
		},
		func(_ *analyzer.Trace, cp *analyzer.CriticalPath, top int, w io.Writer) {
			analyzer.WriteCriticalPathFrom(cp, w, orDefault(top, 10))
		}),
	of("cycles",
		func(tr *analyzer.Trace) *cycles.Report { return cycles.Detect(tr, cycles.Options{}) },
		nil,
		func(_ *analyzer.Trace, r *cycles.Report, w io.Writer) error { return r.WriteJSON(w) },
		func(_ *analyzer.Trace, r *cycles.Report, _ int, w io.Writer) { r.Write(w) }),
}

func orDefault(top, def int) int {
	if top <= 0 {
		return def
	}
	return top
}

// Lookup finds a kind by name.
func Lookup(name string) (*Kind, bool) {
	for i := range All {
		if All[i].Name == name {
			return &All[i], true
		}
	}
	return nil, false
}
