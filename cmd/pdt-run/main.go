// pdt-run executes a workload on the simulated Cell BE under PDT tracing
// and writes the trace file, playing the role of launching an application
// with the instrumented libraries installed.
//
// Usage:
//
//	pdt-run -workload matmul -param n=256 -param buffers=2 -o matmul.pdt
//	pdt-run -workload julia -param mode=dynamic -groups mfc,sync -o julia.pdt
//	pdt-run -workload fft -config pdt.xml -o fft.pdt
//	pdt-run -workload matmul -faults kill:250000 -o crash.pdt
//	pdt-run -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/faults"
	"github.com/celltrace/pdt/internal/harness"
	"github.com/celltrace/pdt/internal/workloads"
)

type paramList map[string]string

func (p paramList) String() string { return fmt.Sprint(map[string]string(p)) }
func (p paramList) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected key=value, got %q", s)
	}
	p[k] = v
	return nil
}

// exitTimeout is the distinct status for a run killed by -timeout, so
// scripts can tell a stuck or runaway simulation (3) apart from ordinary
// failures (1).
const exitTimeout = 3

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pdt-run:", err)
		if errors.Is(err, context.DeadlineExceeded) {
			os.Exit(exitTimeout)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pdt-run", flag.ContinueOnError)
	params := paramList{}
	var (
		workload   = fs.String("workload", "", "workload to run (see -list)")
		list       = fs.Bool("list", false, "list available workloads and exit")
		output     = fs.String("o", "trace.pdt", "trace output path (empty = no trace)")
		livePath   = fs.String("live", "", "mirror the trace to this file while the run executes (tail it with `pdt-ta summary -follow`)")
		configPath = fs.String("config", "", "PDT XML configuration file")
		groups     = fs.String("groups", "", "comma-separated event groups (overrides config)")
		spes       = fs.Int("spes", 0, "number of SPEs (0 = machine default of 8)")
		bufKiB     = fs.Int("buffer", 0, "SPE trace buffer KiB (0 = config default)")
		single     = fs.Bool("singlebuffer", false, "use a single synchronous flush buffer")
		wrap       = fs.Bool("wrap", false, "wrap the main trace region, keeping the most recent records")
		winStart   = fs.Uint64("windowstart", 0, "record only events at/after this cycle")
		winEnd     = fs.Uint64("windowend", 0, "record only events before this cycle (0 = open)")
		untraced   = fs.Bool("untraced", false, "run without tracing (baseline timing)")
		faultSpec  = fs.String("faults", "", "fault injection spec, e.g. kill:250000,stall:0:5000:4000,corrupt:rand:rand (see internal/faults)")
		timeout    = fs.Duration("timeout", 0, "abort the run after this wall-clock duration (exit status 3)")
	)
	fs.Var(params, "param", "workload parameter key=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, n := range workloads.Names() {
			w, _ := workloads.New(n)
			fmt.Fprintf(out, "%-10s %s\n", n, workloads.Description(n))
			defaults := w.Params()
			keys := make([]string, 0, len(defaults))
			for k := range defaults {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(out, "    %s=%s (default)\n", k, defaults[k])
			}
		}
		return nil
	}
	if *workload == "" {
		return fmt.Errorf("missing -workload (try -list)")
	}

	spec := harness.Spec{
		Workload:  *workload,
		Params:    params,
		NumSPEs:   *spes,
		TracePath: *output,
		LivePath:  *livePath,
	}
	if *livePath != "" && *untraced {
		return fmt.Errorf("-live requires tracing (drop -untraced)")
	}
	if *faultSpec != "" {
		plan, err := faults.Parse(*faultSpec)
		if err != nil {
			return err
		}
		spec.Faults = plan
	}
	if !*untraced {
		cfg := core.DefaultTraceConfig()
		if *configPath != "" {
			var err error
			cfg, err = core.LoadConfigFile(*configPath)
			if err != nil {
				return err
			}
		}
		if *groups != "" {
			cfg.Groups = 0
			for _, g := range strings.Split(*groups, ",") {
				bit, ok := event.ParseGroup(strings.TrimSpace(g))
				if !ok {
					return fmt.Errorf("unknown group %q", g)
				}
				cfg.Groups |= bit
			}
		}
		if *bufKiB > 0 {
			cfg.SPEBufferSize = *bufKiB * 1024
		}
		if *single {
			cfg.DoubleBuffered = false
		}
		if *wrap {
			cfg.WrapMain = true
		}
		cfg.WindowStart = *winStart
		cfg.WindowEnd = *winEnd
		spec.Trace = &cfg
	} else {
		spec.TracePath = ""
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := harness.RunContext(ctx, spec)
	if err != nil {
		if traceio.IsCorrupt(err) || errors.Is(err, traceio.ErrUnsalvageable) {
			return fmt.Errorf("%v — try `pdt-ta doctor %s` on the written trace", err, *output)
		}
		return err
	}
	if res.Crashed {
		fmt.Fprintf(out, "workload %s KILLED at cycle %d by fault injection; crash-consistent trace written\n",
			*workload, res.Cycles)
	} else {
		fmt.Fprintf(out, "workload %s finished in %d cycles (%.3f ms at 3.2 GHz), result verified\n",
			*workload, res.Cycles, float64(res.Cycles)/3.2e6)
	}
	if spec.Trace != nil {
		st := res.Stats
		fmt.Fprintf(out, "trace: %d SPE + %d PPE records, %d flushes (%d cycles), %d dropped -> %s (%d bytes)\n",
			st.SPERecords, st.PPERecords, st.Flushes, st.FlushCycles, st.Dropped,
			*output, len(res.TraceBytes))
		if st.FlushRetries > 0 || st.FlushFailDrops > 0 {
			fmt.Fprintf(out, "trace: %d flush retries, %d records dropped by failed flushes\n",
				st.FlushRetries, st.FlushFailDrops)
		}
		for _, n := range res.FaultNotes {
			fmt.Fprintf(out, "fault: %s\n", n)
		}
		if res.Salvage != nil {
			fmt.Fprintf(out, "salvage: %d/%d chunks recovered, %d records; inspect with `pdt-ta doctor %s`\n",
				res.Salvage.ChunksRecovered,
				res.Salvage.ChunksRecovered+res.Salvage.ChunksDamaged+res.Salvage.ChunksDropped,
				res.Salvage.RecordsRecovered, *output)
		}
	}
	return nil
}
