package kinds_test

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/analyzer/cycles"
	"github.com/celltrace/pdt/internal/analyzer/kinds"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/harness"
)

// TestNames: the table's names are what every front end keys on, so they
// must be unique and non-empty, be exactly cache.AnalysisKinds minus
// doctor in the same order, and cover every artifact-kind constant the
// cache declares for a loaded-trace view.
func TestNames(t *testing.T) {
	var names []string
	for _, k := range kinds.All {
		if k.Name == "" || k.Compute == nil || k.JSON == nil || k.Text == nil {
			t.Fatalf("incomplete entry %+v", k)
		}
		if slices.Contains(names, k.Name) {
			t.Fatalf("duplicate kind %q", k.Name)
		}
		names = append(names, k.Name)
		if got, ok := kinds.Lookup(k.Name); !ok || got.Name != k.Name {
			t.Fatalf("Lookup(%q) = %v, %v", k.Name, got, ok)
		}
	}
	if want := append(slices.Clone(names), cache.KindDoctor); !slices.Equal(cache.AnalysisKinds, want) {
		t.Fatalf("cache.AnalysisKinds = %v, want %v", cache.AnalysisKinds, want)
	}
	for _, c := range []string{cache.KindSummary, cache.KindProfile, cache.KindGaps, cache.KindCritPath, cache.KindCycles} {
		if _, ok := kinds.Lookup(c); !ok {
			t.Errorf("cache constant %q is not a registered kind", c)
		}
	}
	for _, notKind := range []string{cache.KindDoctor, cache.KindTrace, "diff", ""} {
		if _, ok := kinds.Lookup(notKind); ok {
			t.Errorf("%q must not be a registered kind", notKind)
		}
	}
}

// oracle spells out, by analyzer function name, what each kind must
// print. It is deliberately not derived from the table: it is the check
// on the table's wiring that does not go through the wiring.
var oracle = map[string]struct {
	json func(tr *analyzer.Trace, w io.Writer) error
	text func(tr *analyzer.Trace, top int, w io.Writer)
}{
	"summary": {
		func(tr *analyzer.Trace, w io.Writer) error { return analyzer.WriteJSON(tr, analyzer.Summarize(tr), w) },
		func(tr *analyzer.Trace, _ int, w io.Writer) { analyzer.Report(tr, analyzer.Summarize(tr), w) },
	},
	"profile": {
		func(tr *analyzer.Trace, w io.Writer) error {
			return analyzer.WriteProfilePairsJSON(tr, analyzer.Profile(tr), w)
		},
		func(tr *analyzer.Trace, _ int, w io.Writer) { analyzer.WriteProfilePairs(tr, analyzer.Profile(tr), w) },
	},
	"gaps": {
		func(tr *analyzer.Trace, w io.Writer) error {
			min := analyzer.SuggestGapThreshold(tr)
			return analyzer.WriteGapsJSON(min, analyzer.FindGaps(tr, min), w)
		},
		func(tr *analyzer.Trace, top int, w io.Writer) {
			if top == 0 {
				top = 15
			}
			min := analyzer.SuggestGapThreshold(tr)
			analyzer.WriteGapsFound(min, analyzer.FindGaps(tr, min), top, w)
		},
	},
	"critpath": {
		func(tr *analyzer.Trace, w io.Writer) error {
			return analyzer.WriteCriticalPathJSON(analyzer.ComputeCriticalPath(tr), w)
		},
		func(tr *analyzer.Trace, top int, w io.Writer) {
			if top == 0 {
				top = 10
			}
			analyzer.WriteCriticalPathFrom(analyzer.ComputeCriticalPath(tr), w, top)
		},
	},
	"cycles": {
		func(tr *analyzer.Trace, w io.Writer) error { return cycles.Detect(tr, cycles.Options{}).WriteJSON(w) },
		func(tr *analyzer.Trace, _ int, w io.Writer) { cycles.Detect(tr, cycles.Options{}).Write(w) },
	},
}

// TestEntriesMatchOracle: over two clean traces and a truncated one,
// every entry's JSON and Text (default and explicit row bound) are the
// bytes the oracle's by-name calls produce.
func TestEntriesMatchOracle(t *testing.T) {
	pipeline := traceImage(t, "pipeline", map[string]string{"blocks": "8", "blockbytes": "1024"})
	images := map[string][]byte{
		"pipeline": pipeline,
		"julia":    traceImage(t, "julia", map[string]string{"w": "64", "h": "32", "maxiter": "16"}),
		"cut":      pipeline[:len(pipeline)*7/10],
	}
	for name, img := range images {
		tr, err := analyzer.Load(bytes.NewReader(img))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		analyzer.Validate(tr)
		for _, k := range kinds.All {
			ref, ok := oracle[k.Name]
			if !ok {
				t.Fatalf("kind %q has no oracle row: add its by-name reference here", k.Name)
			}
			v := k.Compute(tr)
			var got, want bytes.Buffer
			if err := k.JSON(tr, v, &got); err != nil {
				t.Fatalf("%s/%s JSON: %v", name, k.Name, err)
			}
			if err := ref.json(tr, &want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s/%s: JSON differs from the by-name reference", name, k.Name)
			}
			for _, top := range []int{0, 3} {
				got.Reset()
				want.Reset()
				k.Text(tr, v, top, &got)
				ref.text(tr, top, &want)
				if got.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s/%s top=%d: text differs from the by-name reference\n--- got ---\n%s--- want ---\n%s",
						name, k.Name, top, got.Bytes(), want.Bytes())
				}
			}
		}
	}
}

func traceImage(t *testing.T, workload string, params map[string]string) []byte {
	t.Helper()
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{Workload: workload, Params: params, Trace: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	return res.TraceBytes
}
