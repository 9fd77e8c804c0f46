package harness

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

const experimentsGoldenPath = "testdata/experiments.golden"

// hostTimeCells matches E10's host-timed rows up to their host-time cell.
// The rest of such a row is wall-clock time on the host running the test,
// not a property of the model, so the golden holds it masked.
var hostTimeCells = regexp.MustCompile(`(?m)^((?:load\+merge|validate\+summarize) +\d+ +)\S+ +\S+$`)

func maskHostTimes(out []byte) []byte {
	return hostTimeCells.ReplaceAll(out, []byte("${1}(host time)"))
}

// goldenSections splits printed experiments at their banners, keyed by
// experiment ID; each section is what RunExperiments prints for one.
func goldenSections(out string) map[string]string {
	sections := map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "==== "); ok {
			id, _, _ = strings.Cut(rest, ":")
		}
		sections[id] += line
	}
	return sections
}

// TestAllExperimentsQuick pins every experiment's quick-mode tables,
// byte for byte as pdt-bench prints them, against
// testdata/experiments.golden (E10's host times masked). The model is
// deterministic, so a moved cell is a changed result; -update is only for
// a change that means to move one.
func TestAllExperimentsQuick(t *testing.T) {
	var want map[string]string
	if !*update {
		golden, err := os.ReadFile(experimentsGoldenPath)
		if err != nil {
			t.Fatalf("golden file missing (run with -update to create): %v", err)
		}
		want = goldenSections(string(golden))
		if len(want) != len(Experiments()) {
			t.Errorf("golden holds %d sections, the registry %d experiments", len(want), len(Experiments()))
		}
	}
	var got bytes.Buffer
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := RunExperiments(&buf, []Experiment{e}, true); err != nil {
				t.Fatal(err)
			}
			out := maskHostTimes(buf.Bytes())
			got.Write(out)
			if want != nil && string(out) != want[e.ID] {
				t.Errorf("%s changed:\n got:\n%s\n want:\n%s\n"+
					"(compare `pdt-bench -experiment %s -quick` with the previous commit's; -update only for an intended change)",
					e.ID, out, want[e.ID], e.ID)
			}
		})
	}
	if *update {
		if err := os.WriteFile(experimentsGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// quickRows returns the cells of every row of an experiment's first table,
// regenerated at quick size.
func quickRows(t *testing.T, id string) [][]any {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("%s missing", id)
	}
	tables, err := e.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for _, r := range tables[0].rows {
		rows = append(rows, r.cells)
	}
	return rows
}

// TestUseCaseClaimsQuick checks, from the values of the use-case tables
// at quick size, the conclusion EXPERIMENTS.md draws from each.
func TestUseCaseClaimsQuick(t *testing.T) {
	t.Run("E5", func(t *testing.T) {
		// Rows: mode, SPE, ...; each mode ends with mode, "all",
		// LoadImbalance, wall cycles.
		imbalance, wall := map[string]float64{}, map[string]uint64{}
		for _, c := range quickRows(t, "E5") {
			if c[1] == "all" {
				imbalance[c[0].(string)] = c[2].(float64)
				wall[c[0].(string)] = c[3].(uint64)
			}
		}
		if !(imbalance["static"] > imbalance["dynamic"]) {
			t.Errorf("imbalance static %.3f, dynamic %.3f: dynamic partitioning should flatten it",
				imbalance["static"], imbalance["dynamic"])
		}
		if !(wall["dynamic"] < wall["static"]) {
			t.Errorf("wall static %d, dynamic %d: the dynamic version should be faster",
				wall["static"], wall["dynamic"])
		}
	})
	t.Run("E6", func(t *testing.T) {
		// Rows: tile, buffers, wall, compute ticks, dma-wait ticks, ...
		dmaWait := map[string]map[string]uint64{}
		for _, c := range quickRows(t, "E6") {
			tile := c[0].(string)
			if dmaWait[tile] == nil {
				dmaWait[tile] = map[string]uint64{}
			}
			dmaWait[tile][c[1].(string)] = c[4].(uint64)
		}
		if len(dmaWait) == 0 {
			t.Fatal("no tile")
		}
		for tile, w := range dmaWait {
			if !(w["2"] <= w["1"]) {
				t.Errorf("tile %s: dma-wait double-buffered %d, single %d: double buffering should not add stall",
					tile, w["2"], w["1"])
			}
		}
	})
	t.Run("E7", func(t *testing.T) {
		// Rows: stage, busy, sync-wait, mbox-wait, dma-wait, util %.
		// Quick mode slows stage 2 (slowstage=2).
		const slow = 2
		rows := quickRows(t, "E7")
		top, topUtil := -1, -1.0
		for _, c := range rows {
			if u := c[5].(float64); u > topUtil {
				top, topUtil = int(c[0].(uint8)), u
			}
		}
		if top != slow {
			t.Errorf("highest util %% is stage %d at %.1f, want the slow stage %d", top, topUtil, slow)
		}
	})
}

// fakeExperiments builds deterministic experiments, one single-row table
// each; the one at failAt fails.
func fakeExperiments(n int, failAt int) []Experiment {
	exps := make([]Experiment, n)
	for i := range exps {
		exps[i] = Experiment{
			ID:    fmt.Sprintf("X%d", i+1),
			Title: fmt.Sprintf("fake table %d", i+1),
			Run: func(quick bool) ([]*Table, error) {
				if i == failAt {
					return nil, errors.New("boom")
				}
				t := newTable("row\tquick", "row %d\t%v")
				t.add(i+1, quick)
				return []*Table{t}, nil
			},
		}
	}
	return exps
}

// TestRunExperimentsBannersInOrder checks each experiment prints under
// its banner, in experiment order.
func TestRunExperimentsBannersInOrder(t *testing.T) {
	var out bytes.Buffer
	if err := RunExperiments(&out, fakeExperiments(7, -1), true); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.HasPrefix(s, "==== X1: fake table 1 ====\nrow    quick\nrow 1  true\n\n==== X2:") {
		t.Fatalf("banner or table layout wrong:\n%s", s)
	}
	last := -1
	for i := 1; i <= 7; i++ {
		at := strings.Index(s, fmt.Sprintf("row %d ", i))
		if at < last {
			t.Fatalf("experiment order not preserved:\n%s", s)
		}
		last = at
	}
}

// TestRunExperimentsError checks a failing experiment is named in the
// error and that nothing of it, or of any experiment after it, prints.
func TestRunExperimentsError(t *testing.T) {
	var out bytes.Buffer
	err := RunExperiments(&out, fakeExperiments(5, 2), false)
	if err == nil || !strings.Contains(err.Error(), "X3") {
		t.Fatalf("want X3 failure, got %v", err)
	}
	if strings.Contains(out.String(), "X3") || strings.Contains(out.String(), "row 4") {
		t.Fatalf("output of or after the failure leaked:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "row 2") {
		t.Fatalf("output before failure missing:\n%s", out.String())
	}
}
