// benchcheck is the benchmark regression gate: it runs the committed
// reference benchmarks (trace load, interval profile, critical path,
// gap hunting, trace differencing, cycle detection, align-mode cycle
// diffing, end-to-end TAD summary) with
// -benchmem, parses the ns/op, B/op and allocs/op figures, and compares
// all three against BENCH_baseline.json. A result more than -tolerance
// worse than its baseline entry on any metric fails the run; a package
// that regresses is re-run once first, so a single noisy scheduling
// hiccup does not fail CI. `-update` rewrites the baseline from a fresh
// run instead of comparing.
//
// The baseline file keeps separate sections for -short and full-size
// runs (the trace sizes differ by 10x), so `make ci` can gate on the
// cheap short variant while `make bench-check` gates the real sizes.
// At -short sizes an operation lasts microseconds and its wall time is
// scheduler noise on a shared host, so there ns/op is printed for
// information and only B/op and allocs/op — which do not depend on the
// host — can fail the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// suite lists one `go test -bench` invocation to measure.
type suite struct {
	pkg   string
	bench string // -bench regexp
}

// suites are the committed reference benchmarks. The LargeTrace family
// lives in the repo-root package; BenchmarkTADSummary is the service's
// end-to-end request path.
var suites = []suite{
	{".", "^(BenchmarkLoadLargeTrace|BenchmarkLoadStream|BenchmarkProfileLargeTrace|BenchmarkCritPathLargeTrace|BenchmarkGapsLargeTrace|BenchmarkDiffLargeTrace|BenchmarkCyclesLargeTrace|BenchmarkDiffAlignLargeTrace)$"},
	{"./cmd/pdt-tad", "^BenchmarkTADSummary$"},
}

// metrics is one benchmark's measured figures. BOp/AllocsOp are -1 when
// the benchmark did not report allocations (no b.ReportAllocs call);
// such entries gate on time only.
type metrics struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// baseline is the committed shape of BENCH_baseline.json.
type baseline struct {
	// Tolerance is the allowed fractional regression on any metric
	// before failing (0.25 = fail past +25%); -tolerance overrides
	// when set.
	Tolerance float64 `json:"tolerance"`
	// Short and Full map benchmark name (without the Benchmark prefix
	// or the -GOMAXPROCS suffix) to its measured metrics.
	Short map[string]metrics `json:"short"`
	Full  map[string]metrics `json:"full"`
}

// benchLine matches one `go test -bench -benchmem` result line, e.g.
// "BenchmarkLoadLargeTrace/parallel-8  5  1234567 ns/op  12 MB/s  345 B/op  6 allocs/op".
// The MB/s column is optional, as are the allocation columns.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// parseBench extracts name → metrics from `go test -bench` output. The
// "Benchmark" prefix and the trailing -N GOMAXPROCS suffix are stripped
// so names stay stable across hosts.
func parseBench(out string) map[string]metrics {
	res := make(map[string]metrics)
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		got := metrics{NsOp: ns, BOp: -1, AllocsOp: -1}
		if m[4] != "" {
			if b, err := strconv.ParseFloat(m[4], 64); err == nil {
				got.BOp = b
			}
			if a, err := strconv.ParseFloat(m[5], 64); err == nil {
				got.AllocsOp = a
			}
		}
		res[strings.TrimPrefix(m[1], "Benchmark")] = got
	}
	return res
}

// runSuite executes one benchmark package and returns its parsed results.
func runSuite(s suite, short bool, benchtime string) (map[string]metrics, error) {
	args := []string{"test", "-run", "^$", "-bench", s.bench, "-benchmem", "-benchtime", benchtime}
	if short {
		args = append(args, "-short")
	}
	args = append(args, s.pkg)
	cmd := exec.Command("go", args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return parseBench(string(out)), nil
}

// worse reports whether got regressed past base by more than tol.
// Baselines at or below zero gate nothing (unreported metrics are -1;
// a 0 B/op baseline leaves nothing meaningful to scale by).
func worse(base, got, tol float64) bool {
	return base > 0 && got > base*(1+tol)
}

// compare reports every metric of got that regressed past base by more
// than tol, and every baseline entry missing from got. With gateTime
// false a slower ns/op is a note, not a failure.
func compare(base, got map[string]metrics, tol float64, gateTime bool) (bad, notes []string) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base[name]
		m, ok := got[name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: in baseline but not measured (renamed or deleted?)", name))
			continue
		}
		if worse(want.NsOp, m.NsOp, tol) {
			line := fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%+.1f%%, limit +%.0f%%)",
				name, m.NsOp, want.NsOp, 100*(m.NsOp/want.NsOp-1), 100*tol)
			if gateTime {
				bad = append(bad, line)
			} else {
				notes = append(notes, line)
			}
		}
		if worse(want.BOp, m.BOp, tol) {
			bad = append(bad, fmt.Sprintf("%s: %.0f B/op vs baseline %.0f (%+.1f%%, limit +%.0f%%)",
				name, m.BOp, want.BOp, 100*(m.BOp/want.BOp-1), 100*tol))
		}
		if worse(want.AllocsOp, m.AllocsOp, tol) {
			bad = append(bad, fmt.Sprintf("%s: %.0f allocs/op vs baseline %.0f (%+.1f%%, limit +%.0f%%)",
				name, m.AllocsOp, want.AllocsOp, 100*(m.AllocsOp/want.AllocsOp-1), 100*tol))
		}
	}
	return bad, notes
}

// options carries the parsed command line.
type options struct {
	short     bool
	update    bool
	baseline  string
	tolerance float64
	benchtime string
}

func main() {
	var o options
	flag.BoolVar(&o.short, "short", false, "run the -short benchmark sizes and gate B/op and allocs/op on the baseline's short section (ns/op is reported, not gated)")
	flag.BoolVar(&o.update, "update", false, "rewrite the baseline from a fresh run (both sections) instead of comparing")
	flag.StringVar(&o.baseline, "baseline", "BENCH_baseline.json", "baseline file")
	flag.Float64Var(&o.tolerance, "tolerance", 0, "allowed fractional regression (0 = use the baseline file's tolerance)")
	flag.StringVar(&o.benchtime, "benchtime", "10x", "-benchtime per benchmark")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	measure := func(shortMode bool) (map[string]metrics, error) {
		all := make(map[string]metrics)
		for _, s := range suites {
			res, err := runSuite(s, shortMode, o.benchtime)
			if err != nil {
				return nil, err
			}
			if len(res) == 0 {
				return nil, fmt.Errorf("%s: no benchmark results parsed", s.pkg)
			}
			for k, v := range res {
				all[k] = v
			}
		}
		return all, nil
	}

	if o.update {
		b := baseline{Tolerance: 0.25}
		if o.tolerance > 0 {
			b.Tolerance = o.tolerance
		}
		var err error
		if b.Short, err = measure(true); err != nil {
			return err
		}
		if b.Full, err = measure(false); err != nil {
			return err
		}
		data, err := json.MarshalIndent(&b, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.baseline, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("baseline rewritten: %s (%d short + %d full entries)\n",
			o.baseline, len(b.Short), len(b.Full))
		return nil
	}

	data, err := os.ReadFile(o.baseline)
	if err != nil {
		return fmt.Errorf("reading baseline (run with -update to create): %w", err)
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return fmt.Errorf("parsing %s: %w", o.baseline, err)
	}
	want := b.Full
	section := "full"
	if o.short {
		want = b.Short
		section = "short"
	}
	if len(want) == 0 {
		return fmt.Errorf("%s has no %q section (re-run with -update)", o.baseline, section)
	}
	tol := b.Tolerance
	if o.tolerance > 0 {
		tol = o.tolerance
	}
	if tol <= 0 {
		tol = 0.25
	}

	got, err := measure(o.short)
	if err != nil {
		return err
	}
	bad, notes := compare(want, got, tol, !o.short)
	// Up to three retries: benchmarks share the host with the rest of CI
	// (and, on virtualized runners, with other tenants), so a noisy run
	// or two must not fail the gate. Keep the best observation per
	// metric — a genuine regression stays slow on every attempt, a load
	// burst does not.
	for attempt := 0; len(bad) > 0 && attempt < 3; attempt++ {
		fmt.Printf("possible regression, re-running to damp noise:\n  %s\n",
			strings.Join(bad, "\n  "))
		again, err := measure(o.short)
		if err != nil {
			return err
		}
		for k, v := range again {
			cur, ok := got[k]
			if !ok {
				got[k] = v
				continue
			}
			if v.NsOp < cur.NsOp {
				cur.NsOp = v.NsOp
			}
			if v.BOp >= 0 && (cur.BOp < 0 || v.BOp < cur.BOp) {
				cur.BOp = v.BOp
			}
			if v.AllocsOp >= 0 && (cur.AllocsOp < 0 || v.AllocsOp < cur.AllocsOp) {
				cur.AllocsOp = v.AllocsOp
			}
			got[k] = cur
		}
		bad, notes = compare(want, got, tol, !o.short)
	}
	if len(notes) > 0 {
		fmt.Printf("ns/op over the limit, not gated at %s sizes:\n  %s\n", section, strings.Join(notes, "\n  "))
	}
	if len(bad) > 0 {
		return fmt.Errorf("benchmark regression (%s sizes):\n  %s", section, strings.Join(bad, "\n  "))
	}
	fmt.Printf("benchcheck ok: %d benchmarks within +%.0f%% of %s (%s sizes)\n",
		len(want), 100*tol, o.baseline, section)
	return nil
}
