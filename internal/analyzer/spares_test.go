package analyzer_test

// Spare-array checks. The kernels take their transient arrays from the
// package's bounded lists and give them back before they return, and
// every array that goes back is poisoned under test (poison_test.go).
// These tests call the kernels over and over on traces of different
// sizes, in turn and at once, so that every call runs on arrays a
// different trace left: a kernel that reads an element it did not write
// answers differently from its first call.

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cycles"
	"github.com/celltrace/pdt/internal/analyzer/diff"
	"github.com/celltrace/pdt/internal/analyzer/kinds"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/harness"
	"github.com/celltrace/pdt/internal/workloads"
)

// namedTrace is one loaded trace and its image.
type namedTrace struct {
	name string
	data []byte
	tr   *analyzer.Trace
}

func loadNamed(t *testing.T, name string, data []byte) namedTrace {
	t.Helper()
	tr, err := analyzer.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return namedTrace{name, data, tr}
}

// syntheticTrace is synthetic events=5000: 40k events on 8 SPEs.
func syntheticTrace(t *testing.T) namedTrace {
	t.Helper()
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic", Params: map[string]string{"events": "5000", "gap": "100"}, Trace: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return loadNamed(t, "synthetic events=5000", res.TraceBytes)
}

// kernelOutputs renders every kind's JSON and, against other, the diff
// in both modes, keyed by what was run. Diff must equal DiffSerial.
func kernelOutputs(t *testing.T, nt, other namedTrace) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, k := range kinds.All {
		var buf bytes.Buffer
		if err := k.JSON(nt.tr, k.Compute(nt.tr), &buf); err != nil {
			t.Fatalf("%s %s: %v", nt.name, k.Name, err)
		}
		out[k.Name] = buf.Bytes()
	}
	for _, mode := range []string{"", diff.ModeAlign} {
		opt := diff.Options{Mode: mode}
		rep, err := diff.Diff(nt.tr, other.tr, opt)
		if err != nil {
			t.Fatalf("%s diff %q: %v", nt.name, mode, err)
		}
		serial, err := diff.DiffSerial(nt.tr, other.tr, opt)
		if err != nil {
			t.Fatalf("%s diff %q serial: %v", nt.name, mode, err)
		}
		if !reflect.DeepEqual(rep, serial) {
			t.Errorf("%s vs %s: Diff mode %q differs from DiffSerial", nt.name, other.name, mode)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		out["diff "+mode] = buf.Bytes()
	}
	return out
}

// TestKernelsRepeatOverSpares runs every kind's kernel and both diff
// modes three times over 23 traces of different sizes, in an order that
// changes each round: every workload clean and cut to 70% (each diffed
// against the other), and synthetic events=5000 (diffed against
// itself). Every call must render what the first call rendered, byte
// for byte. Run with detectRun's write of 0 for an ineligible row's
// signature bit removed, it fails: that row keeps the poison.
func TestKernelsRepeatOverSpares(t *testing.T) {
	type pair struct{ a, b namedTrace }
	var pairs []pair
	for _, name := range workloads.Names() {
		data := traceWorkload(t, name)
		clean := loadNamed(t, name+" clean", data)
		cut := loadNamed(t, name+" cut", data[:len(data)*7/10])
		pairs = append(pairs, pair{clean, cut}, pair{cut, clean})
	}
	syn := syntheticTrace(t)
	pairs = append(pairs, pair{syn, syn})

	first := make([]map[string][]byte, len(pairs))
	for round := 0; round < 3; round++ {
		for n := range pairs {
			i := n
			if round == 1 { // reversed: the large synthetic trace first
				i = len(pairs) - 1 - n
			} else if round == 2 { // alternate the ends
				i = n / 2
				if n%2 == 1 {
					i = len(pairs) - 1 - n/2
				}
			}
			p := pairs[i]
			got := kernelOutputs(t, p.a, p.b)
			if first[i] == nil {
				first[i] = got
				continue
			}
			for what, b := range got {
				if !bytes.Equal(b, first[i][what]) {
					t.Errorf("round %d, %s: %s differs from the first call", round, p.a.name, what)
				}
			}
		}
	}
}

// TestSparesConcurrentKernels runs diff align, the critical path and
// cycle detection on four distinct traces at once, four goroutines over
// the shared lists, a few rounds each. Every result must be the one the
// trace gave alone; under -race the lists' hand-offs are checked too.
func TestSparesConcurrentKernels(t *testing.T) {
	traces := []namedTrace{syntheticTrace(t)}
	for _, name := range []string{"pipeline", "taskfarm", "stencil"} {
		traces = append(traces, loadNamed(t, name, traceWorkload(t, name)))
	}
	run := func(tr *analyzer.Trace) string {
		rep, err := diff.Diff(tr, tr, diff.Options{Mode: diff.ModeAlign})
		if err != nil {
			return err.Error()
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			return err.Error()
		}
		if err := analyzer.WriteCriticalPathJSON(analyzer.ComputeCriticalPath(tr), &buf); err != nil {
			return err.Error()
		}
		if err := cycles.Detect(tr, cycles.Options{}).WriteJSON(&buf); err != nil {
			return err.Error()
		}
		return buf.String()
	}
	want := make([]string, len(traces))
	for i, nt := range traces {
		want[i] = run(nt.tr)
	}
	var wg sync.WaitGroup
	for i, nt := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				if got := run(nt.tr); got != want[i] {
					t.Errorf("%s, round %d: concurrent result differs from the lone one", nt.name, round)
				}
			}
		}()
	}
	wg.Wait()
}

// TestSparesStayInBudget: after a storm of every spare-using kernel and
// the batch load, eight callers at once — all on the 40k-event trace
// first, holding well over SpareBytes of arrays between them, then on
// traces of different sizes — the lists keep at most SpareBytes, and
// the budget's count is what the lists hold.
func TestSparesStayInBudget(t *testing.T) {
	traces := []namedTrace{syntheticTrace(t)}
	for _, name := range []string{"pipeline", "julia", "nbody"} {
		traces = append(traces, loadNamed(t, name, traceWorkload(t, name)))
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				nt := traces[c*round%len(traces)]
				f, err := traceio.Parse(nt.data)
				if err == nil {
					_, err = analyzer.FromFile(f)
				}
				if err == nil {
					_, err = diff.Diff(nt.tr, nt.tr, diff.Options{Mode: diff.ModeAlign})
				}
				if err != nil {
					t.Errorf("%s: %v", nt.name, err)
					return
				}
				analyzer.SuggestGapThreshold(nt.tr)
				analyzer.ComputeCriticalPath(nt.tr)
			}
		}()
	}
	wg.Wait()
	kept, counted := analyzer.SparesKept(), analyzer.Spares.Bytes()
	t.Logf("the lists keep %d bytes after the storm", kept)
	if kept != counted || kept > analyzer.SpareBytes || kept == 0 {
		t.Errorf("the lists keep %d bytes, the budget counts %d; want them equal, above 0 and at most %d",
			kept, counted, analyzer.SpareBytes)
	}
}
