// Command bench is this repository's benchmark: five workloads that each
// put a different layer to work (simulator and tracer, batch analysis,
// streaming analysis, the daemon's cache-hit path, the daemon's miss
// path), end-to-end metrics from an untraced pass, and per-layer metrics
// from spans recorded around each layer's public calls in a separate
// traced pass. README.md explains the design; BENCHMARK.json at the
// repository root fixes the names and the regression bounds.
//
// It is a module of its own, run from the repository root with -C:
//
//	go run -C bench . --workload serve_cold --seed 1 --seconds 12 --trace 0
//	go run -C bench . -all -out out/a.json
//	go run -C bench . -compare out/a.json out/b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the result line has been printed, when
// an op failed the oracle or a class fell short of the sample floor.
var errIncorrect = errors.New("run was not correct (see errors above)")

func run(ctx context.Context, args []string, stdout io.Writer) error {
	if os.Getenv(childEnv) != "" {
		return childMain(ctx)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to measure: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the corpus parameters, the op schedule and the fresh-body nonces")
	fs.Float64Var(&o.seconds, "seconds", 12, "length of the measured window")
	trace := fs.Int("trace", 0, "0: plain pass, end-to-end metrics; 1: traced pass, per-layer metrics and bench/out/spans-<workload>.json")
	fs.BoolVar(&o.smoke, "smoke", false, "one set-up, short warm-up, each window ends once every scheduled op was sampled (what `go test` in bench/ drives)")
	all := fs.Bool("all", false, "measure every workload, plain then traced, each in a fresh process, and write -out")
	out := fs.String("out", "", "with -all: the file the combined result is written to")
	compare := fs.Bool("compare", false, "compare two -all results given as arguments, each one file or a comma-separated list compared by medians; exit non-zero on a regression")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.traced = *trace != 0
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	case *all:
		if *out == "" {
			return errors.New("-all needs -out FILE")
		}
		return runAll(ctx, o, *out, stdout)
	case o.workload == "":
		fs.Usage()
		return errors.New("one of -workload, -all, -compare is required")
	}
	rep, err := benchOne(ctx, o)
	if err != nil {
		return err
	}
	return rep.print(stdout)
}

func workloadNames() []string {
	names := make([]string, len(workloadList))
	for i, w := range workloadList {
		names[i] = w.name
	}
	return names
}

// print writes the full report, then — as the last line — the four
// fields the benchmark contract asks for.
func (rep *report) print(w io.Writer) error {
	full, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "bench: failed:", e)
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "report %s\n%s\n", full, last); err != nil {
		return err
	}
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}

// hostInfo says where and on what a result was measured.
type hostInfo struct {
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
}

func host(root string) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: "unknown"}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// allResult is what -all writes and -compare reads.
type allResult struct {
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Runs    []*report `json:"runs"`
}

// runAll measures every workload plain and traced, each run a fresh
// process of this binary so that none inherits another's heap.
func runAll(ctx context.Context, o options, outPath string, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res := allResult{Seed: o.seed, Seconds: o.seconds}
	incorrect := false
	for _, traced := range []int{0, 1} {
		for _, w := range workloadList {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed),
				"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(traced)}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.CommandContext(ctx, exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			// A run that printed a result and exited 1 was incorrect; its
			// numbers still belong in the file.
			rep, perr := parseReport(out)
			if perr != nil {
				return fmt.Errorf("%s trace=%d: %w", w.name, traced, firstErr(err, perr))
			}
			incorrect = incorrect || !rep.Correct
			res.Runs = append(res.Runs, rep)
			fmt.Fprintf(stdout, "%-15s trace=%d correct=%v attempted=%d failed=%d\n",
				w.name, traced, rep.Correct, rep.Attempted, rep.Failed)
		}
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outPath, b, 0o644); err != nil {
		return err
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// parseReport finds the "report {...}" line of a single run's output.
func parseReport(out []byte) (*report, error) {
	for _, line := range strings.Split(string(out), "\n") {
		if js, ok := strings.CutPrefix(line, "report "); ok {
			var rep report
			if err := json.Unmarshal([]byte(js), &rep); err != nil {
				return nil, err
			}
			return &rep, nil
		}
	}
	return nil, errors.New("no report line in the run's output")
}
