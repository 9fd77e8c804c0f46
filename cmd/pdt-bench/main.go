// pdt-bench regenerates the evaluation tables and figures (see DESIGN.md
// section 3 for the experiment index and EXPERIMENTS.md for recorded
// results).
//
// Usage:
//
//	pdt-bench -experiment all
//	pdt-bench -experiment E6
//	pdt-bench -experiment E3 -quick
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/celltrace/pdt/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pdt-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pdt-bench", flag.ContinueOnError)
	exp := fs.String("experiment", "all", "experiment id (E1..E15) or 'all'")
	quick := fs.Bool("quick", false, "shrink problem sizes for a fast smoke run")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range harness.Experiments() {
			fmt.Fprintf(out, "%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	var todo []harness.Experiment
	if *exp == "all" {
		todo = harness.Experiments()
	} else {
		e, ok := harness.ByID(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *exp)
		}
		todo = []harness.Experiment{e}
	}
	return harness.RunExperiments(out, todo, *quick)
}
