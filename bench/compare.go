package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is BENCHMARK.json: the names, directions and regression
// bounds every later change is judged on.
type benchmarkFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

// exactCounts are the per-layer metrics the simulator and tracer fix
// exactly for a given seed: a change that claims only host speed must
// leave them identical.
var exactCounts = []string{
	"cell.sim_cycles", "cell.eib_bytes", "core.records", "core.flushes", "core.dropped",
	"core.trace_bytes", "core.overhead_pct.large", "core.overhead_pct.small",
}

// side is one side of a comparison: one or more -all results of the same
// code, compared by their medians so that one run in a fast or slow phase
// of the host does not decide the verdict.
type side []*allResult

// readSide reads a comma-separated list of -all result files.
func readSide(paths string) (side, error) {
	var sd side
	for _, path := range strings.Split(paths, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var res allResult
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		sd = append(sd, &res)
	}
	return sd, nil
}

// runs returns the side's runs of one workload and pass, nil if any of
// its results lacks one.
func (sd side) runs(workload string, traced bool) []*report {
	var out []*report
	for _, res := range sd {
		found := false
		for _, r := range res.Runs {
			if r.Workload == workload && r.Traced == traced {
				out, found = append(out, r), true
			}
		}
		if !found {
			return nil
		}
	}
	return out
}

// metricMedian is the median over runs of one metric.
func metricMedian(runs []*report, name string) float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r.Metrics[name].Value
	}
	return median(vals)
}

// failShare is failed ÷ attempted over runs, and whether all were correct.
func failShare(runs []*report) (share float64, correct bool) {
	var failed, attempted float64
	correct = true
	for _, r := range runs {
		failed += float64(r.Failed)
		attempted += float64(r.Attempted)
		correct = correct && r.Correct
	}
	return ratio(failed, attempted), correct
}

// worsening is how much worse b is than a, as a share of a.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints every workload × end-to-end metric of two sides (A
// the baseline, B the candidate; each a comma-separated list of -all
// results, compared by medians) and fails when B is worse than A by more
// than the metric's bound, when more of B's ops failed, or when an exact
// count differs between runs of the same seed.
func compareFiles(pathsA, pathsB string, out io.Writer) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	a, err := readSide(pathsA)
	if err != nil {
		return err
	}
	b, err := readSide(pathsB)
	if err != nil {
		return err
	}
	bad := 0
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tB/A\tbound\t")
	for _, w := range workloadList {
		ra, rb := a.runs(w.name, false), b.runs(w.name, false)
		if ra == nil || rb == nil {
			fmt.Fprintf(tw, "%s\t(missing plain run)\t\t\t\t\tFAIL\n", w.name)
			bad++
			continue
		}
		for _, m := range bf.EndToEnd {
			va, vb := metricMedian(ra, m.Name), metricMedian(rb, m.Name)
			verdict := "ok"
			if worsening(va, vb, m.Better) > m.Bound {
				verdict = "REGRESSION"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.4g\t%.4g\t%.3f\t%.0f%%\t%s\n",
				w.name, m.Name, m.Unit, va, vb, ratio(vb, va), 100*m.Bound, verdict)
		}
		fa, _ := failShare(ra)
		fb, correct := failShare(rb)
		verdict := "ok"
		if fb > fa || !correct {
			verdict = "REGRESSION"
			bad++
		}
		fmt.Fprintf(tw, "%s\tfail_share\t%.4g\t%.4g\t\tany\t%s\n", w.name, fa, fb, verdict)
	}
	// The simulator and tracer are deterministic: every traced run of a
	// seed must report the first one's counts.
	for _, w := range workloadList {
		runs := append(a.runs(w.name, true), b.runs(w.name, true)...)
		for _, r := range runs {
			if r.Seed != runs[0].Seed {
				continue
			}
			for _, name := range exactCounts {
				if va, vb := runs[0].Metrics[name].Value, r.Metrics[name].Value; va != vb {
					fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t\texact\tDIFFERS\n", w.name, name, va, vb)
					bad++
				}
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons out of bound", bad)
	}
	fmt.Fprintln(out, "all within bounds; exact counts identical")
	return nil
}
