package harness

import (
	"bytes"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
)

// Experiment regenerates one table or figure of the (reconstructed)
// evaluation; see DESIGN.md section 3 for the index.
type Experiment struct {
	ID    string
	Title string
	// Run prints the table/series to w. quick shrinks problem sizes for
	// smoke tests; full sizes reproduce the recorded results.
	Run func(w io.Writer, quick bool) error
}

// Experiments lists every experiment in order.
func Experiments() []Experiment {
	return []Experiment{
		{"E1", "Table 1: PDT event inventory", runE1},
		{"E2", "Table 2: per-event tracing cost", runE2},
		{"E3", "Table 3: application slowdown under tracing", runE3},
		{"E4", "Figure 4: overhead vs SPE trace-buffer size (single vs double buffered)", runE4},
		{"E5", "Figure 5: load imbalance, static vs dynamic Julia partitioning", runE5},
		{"E6", "Figure 6: DMA stall breakdown, single vs double buffered matmul", runE6},
		{"E7", "Figure 7: pipeline bottleneck, per-stage wait breakdown", runE7},
		{"E8", "Table 4: trace volume per workload", runE8},
		{"E9", "Figure 8: overhead vs event rate", runE9},
		{"E10", "Table 5: analyzer throughput", runE10},
		{"E11", "Table 6 (ablation): memory/EIB bandwidth vs STREAM triad", runE11},
		{"E12", "Table 7 (ablation): barrier latency, atomic vs signal fabric", runE12},
		{"E13", "Figure 9: workload speedup vs SPE count", runE13},
		{"E14", "Table 8: PDT overhead attribution via trace differencing", runE14},
		{"E15", "Table 9: per-cycle variance across the iterative workloads", runE15},
	}
}

// ByID finds one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// cyclesToMs converts simulated cycles to milliseconds at the nominal
// 3.2 GHz clock.
func cyclesToMs(c uint64) float64 { return float64(c) / float64(core.NominalClockHz) * 1e3 }

// cyclesToNs converts simulated cycles to nanoseconds.
func cyclesToNs(c float64) float64 { return c / float64(core.NominalClockHz) * 1e9 }

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// ---------------------------------------------------------------- E1 ----

func runE1(w io.Writer, quick bool) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "event\tgroup\tkind\targs\trecord bytes")
	kinds := map[event.Kind]string{event.KindPoint: "point", event.KindEnter: "enter", event.KindExit: "exit"}
	for _, info := range event.All() {
		r := event.Record{ID: info.ID, Args: make([]uint64, len(info.Args))}
		args := ""
		for i, a := range info.Args {
			if i > 0 {
				args += ","
			}
			args += a
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\n", info.Name, info.Group, kinds[info.Kind], args, r.EncodedSize())
	}
	return tw.Flush()
}

// ---------------------------------------------------------------- E2 ----

// runE2 measures the effective cost of tracing one occurrence of each
// operation class: the same SPE loop runs untraced and fully traced, and
// the cycle delta is divided by the iteration count.
func runE2(w io.Writer, quick bool) error {
	iters := 2000
	if quick {
		iters = 200
	}
	type op struct {
		name    string
		params  map[string]string
		records int // trace records per iteration on the SPE
	}
	// The synthetic workload emits exactly one user event per iteration;
	// the other classes are exercised through mini-workload params.
	ops := []op{
		{"user event", map[string]string{"events": fmt.Sprint(iters), "gap": "500"}, 1},
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "operation\trecords/op\tcycles/op untraced\tcycles/op traced\tdelta cycles\tdelta ns")
	for _, o := range ops {
		base, err := Run(Spec{Workload: "synthetic", Params: o.params})
		if err != nil {
			return err
		}
		cfg := core.DefaultTraceConfig()
		traced, err := Run(Spec{Workload: "synthetic", Params: o.params, Trace: &cfg})
		if err != nil {
			return err
		}
		perIterBase := float64(base.Cycles) / float64(iters)
		perIterTraced := float64(traced.Cycles) / float64(iters)
		delta := perIterTraced - perIterBase
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.0f\t%.1f\n",
			o.name, o.records, perIterBase, perIterTraced, delta, cyclesToNs(delta))
	}
	// API-call classes, measured with dedicated mini programs.
	if err := tw.Flush(); err != nil {
		return err
	}
	return runE2APIOps(w)
}

// runE2APIOps times individual instrumented API calls via the matmul/
// histogram communication paths and prints the configured model costs for
// reference.
func runE2APIOps(w io.Writer) error {
	cfg := core.DefaultTraceConfig()
	tw := newTab(w)
	fmt.Fprintln(tw, "\nconfigured instrumentation cost\tcycles\tns")
	fmt.Fprintf(tw, "SPE event record\t%d\t%.1f\n", cfg.SPEEventCost, cyclesToNs(float64(cfg.SPEEventCost)))
	fmt.Fprintf(tw, "PPE event record\t%d\t%.1f\n", cfg.PPEEventCost, cyclesToNs(float64(cfg.PPEEventCost)))
	fmt.Fprintf(tw, "records per DMA get+wait\t3\t%.1f\n", cyclesToNs(float64(3*cfg.SPEEventCost)))
	fmt.Fprintf(tw, "records per mailbox write+read pair\t4\t%.1f\n", cyclesToNs(float64(2*cfg.SPEEventCost+2*cfg.PPEEventCost)))
	return tw.Flush()
}

// ---------------------------------------------------------------- E3 ----

// traceLevels are the cumulative group configurations of Table 3.
func traceLevels() []struct {
	Name   string
	Groups event.Group
} {
	return []struct {
		Name   string
		Groups event.Group
	}{
		{"lifecycle", event.GroupLifecycle},
		{"+mfc", event.GroupLifecycle | event.GroupMFC},
		{"+comm", event.GroupLifecycle | event.GroupMFC | event.GroupMailbox | event.GroupSignal},
		{"+sync", event.GroupLifecycle | event.GroupMFC | event.GroupMailbox | event.GroupSignal | event.GroupAtomic | event.GroupSync},
		{"all", event.GroupAll},
	}
}

// e3Workloads returns the benchmark set and sizes of the overhead table.
func e3Workloads(quick bool) []struct {
	Name   string
	Params map[string]string
} {
	if quick {
		return []struct {
			Name   string
			Params map[string]string
		}{
			{"matmul", map[string]string{"n": "128", "t": "32"}},
			{"julia", map[string]string{"w": "128", "h": "64", "maxiter": "64"}},
		}
	}
	return []struct {
		Name   string
		Params map[string]string
	}{
		{"matmul", map[string]string{"n": "256", "t": "64"}},
		{"fft", map[string]string{"n": "1024", "batches": "48"}},
		{"pipeline", map[string]string{"blocks": "48", "blockbytes": "4096"}},
		{"julia", map[string]string{"w": "512", "h": "256", "maxiter": "200", "mode": "dynamic"}},
		{"histogram", map[string]string{"size": fmt.Sprint(1 << 20)}},
	}
}

func runE3(w io.Writer, quick bool) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "workload\tconfig\tcycles\toverhead %\trecords\trecords/ms")
	for _, wl := range e3Workloads(quick) {
		base, err := Run(Spec{Workload: wl.Name, Params: wl.Params})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\tuntraced\t%d\t0.0\t0\t0\n", wl.Name, base.Cycles)
		for _, lvl := range traceLevels() {
			cfg := core.DefaultTraceConfig()
			cfg.Groups = lvl.Groups
			res, err := Run(Spec{Workload: wl.Name, Params: wl.Params, Trace: &cfg})
			if err != nil {
				return err
			}
			recs := res.Stats.SPERecords + res.Stats.PPERecords
			ms := cyclesToMs(res.Cycles)
			rate := 0.0
			if ms > 0 {
				rate = float64(recs) / ms
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%d\t%.0f\n",
				wl.Name, lvl.Name, res.Cycles, Overhead(base.Cycles, res.Cycles), recs, rate)
		}
	}
	return tw.Flush()
}

// ---------------------------------------------------------------- E4 ----

func runE4(w io.Writer, quick bool) error {
	events, gap := 20000, 300
	sizes := []int{1024, 2048, 4096, 8192, 16384, 32768}
	if quick {
		events = 2000
		sizes = []int{1024, 4096, 16384}
	}
	params := map[string]string{"events": fmt.Sprint(events), "gap": fmt.Sprint(gap)}
	base, err := Run(Spec{Workload: "synthetic", Params: params})
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "buffer KiB\tmode\toverhead %\tflushes\tflush cycles\tdropped")
	for _, size := range sizes {
		for _, double := range []bool{false, true} {
			cfg := core.DefaultTraceConfig()
			cfg.SPEBufferSize = size
			cfg.DoubleBuffered = double
			res, err := Run(Spec{Workload: "synthetic", Params: params, Trace: &cfg})
			if err != nil {
				return err
			}
			mode := "single"
			if double {
				mode = "double"
			}
			fmt.Fprintf(tw, "%d\t%s\t%.2f\t%d\t%d\t%d\n",
				size/1024, mode, Overhead(base.Cycles, res.Cycles),
				res.Stats.Flushes, res.Stats.FlushCycles, res.Stats.Dropped)
		}
	}
	return tw.Flush()
}

// ---------------------------------------------------------------- E5 ----

func runE5(w io.Writer, quick bool) error {
	params := map[string]string{"w": "512", "h": "256", "maxiter": "200"}
	if quick {
		params = map[string]string{"w": "128", "h": "64", "maxiter": "64"}
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "mode\tSPE\tbusy ticks\tsync-wait ticks\tutil %")
	var wall [2]uint64
	for i, mode := range []string{"static", "dynamic"} {
		p := map[string]string{"mode": mode}
		for k, v := range params {
			p[k] = v
		}
		cfg := core.DefaultTraceConfig()
		res, err := Run(Spec{Workload: "julia", Params: p, Trace: &cfg})
		if err != nil {
			return err
		}
		wall[i] = res.Cycles
		s := analyzer.Summarize(res.Trace)
		for _, r := range s.Runs {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.1f\n",
				mode, r.Core, r.Busy(), r.StateTicks[analyzer.StateStallSync], 100*r.Utilization())
		}
		fmt.Fprintf(tw, "%s\tall\timbalance %.3f\twall %d cycles\t\n", mode, s.LoadImbalance, res.Cycles)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "dynamic speedup over static: %.2fx\n", float64(wall[0])/float64(wall[1]))
	return nil
}

// ---------------------------------------------------------------- E6 ----

func runE6(w io.Writer, quick bool) error {
	n := "256"
	tiles := []string{"16", "32", "64"} // compute:DMA ratio grows with T
	if quick {
		n = "128"
		tiles = []string{"32"}
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "tile\tbuffers\twall cycles\tcompute ticks\tdma-wait ticks\tdma-wait %\tspeedup")
	for _, t := range tiles {
		var wall [3]uint64
		rows := make([]string, 0, 2)
		for _, buffers := range []string{"1", "2"} {
			p := map[string]string{"n": n, "t": t, "buffers": buffers}
			cfg := core.DefaultTraceConfig()
			cfg.Groups = event.GroupLifecycle | event.GroupMFC // low-perturbation tracing
			res, err := Run(Spec{Workload: "matmul", Params: p, Trace: &cfg})
			if err != nil {
				return err
			}
			s := analyzer.Summarize(res.Trace)
			compute := s.TotalState(analyzer.StateCompute)
			dma := s.TotalState(analyzer.StateStallDMA)
			frac := 0.0
			if compute+dma > 0 {
				frac = 100 * float64(dma) / float64(compute+dma)
			}
			rows = append(rows, fmt.Sprintf("%s\t%s\t%d\t%d\t%d\t%.1f",
				t, buffers, res.Cycles, compute, dma, frac))
			if buffers == "1" {
				wall[1] = res.Cycles
			} else {
				wall[2] = res.Cycles
			}
		}
		speedup := float64(wall[1]) / float64(wall[2])
		fmt.Fprintf(tw, "%s\t\n", rows[0])
		fmt.Fprintf(tw, "%s\t%.2fx\n", rows[1], speedup)
	}
	return tw.Flush()
}

// ---------------------------------------------------------------- E7 ----

func runE7(w io.Writer, quick bool) error {
	params := map[string]string{"blocks": "48", "blockbytes": "4096", "slowstage": "3", "slowfactor": "12"}
	if quick {
		params = map[string]string{"blocks": "16", "blockbytes": "1024", "slowstage": "2", "slowfactor": "8", "stages": "4"}
	}
	cfg := core.DefaultTraceConfig()
	res, err := Run(Spec{Workload: "pipeline", Params: params, Trace: &cfg})
	if err != nil {
		return err
	}
	s := analyzer.Summarize(res.Trace)
	tw := newTab(w)
	fmt.Fprintln(tw, "stage\tbusy ticks\tsync-wait ticks\tmbox-wait ticks\tdma-wait ticks\tutil %")
	for _, r := range s.Runs {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%.1f\n",
			r.Core, r.Busy(), r.StateTicks[analyzer.StateStallSync],
			r.StateTicks[analyzer.StateStallMbox], r.StateTicks[analyzer.StateStallDMA],
			100*r.Utilization())
	}
	return tw.Flush()
}

// ---------------------------------------------------------------- E8 ----

func runE8(w io.Writer, quick bool) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "workload\trecords\ttrace bytes\tbytes/record\trecords/ms\tflush bytes")
	for _, wl := range e3Workloads(quick) {
		cfg := core.DefaultTraceConfig()
		res, err := Run(Spec{Workload: wl.Name, Params: wl.Params, Trace: &cfg})
		if err != nil {
			return err
		}
		recs := res.Stats.SPERecords + res.Stats.PPERecords
		ms := cyclesToMs(res.Cycles)
		rate := 0.0
		if ms > 0 {
			rate = float64(recs) / ms
		}
		bpr := 0.0
		if recs > 0 {
			bpr = float64(len(res.TraceBytes)) / float64(recs)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%.0f\t%d\n",
			wl.Name, recs, len(res.TraceBytes), bpr, rate, res.Stats.FlushBytes)
	}
	return tw.Flush()
}

// ---------------------------------------------------------------- E9 ----

func runE9(w io.Writer, quick bool) error {
	gaps := []int{100, 300, 1000, 3000, 10000, 30000}
	events := 10000
	if quick {
		gaps = []int{300, 3000, 30000}
		events = 1000
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "gap cycles\tevents/ms (sim)\toverhead %\tflush cycles")
	for _, gap := range gaps {
		params := map[string]string{"events": fmt.Sprint(events), "gap": fmt.Sprint(gap)}
		base, err := Run(Spec{Workload: "synthetic", Params: params})
		if err != nil {
			return err
		}
		cfg := core.DefaultTraceConfig()
		res, err := Run(Spec{Workload: "synthetic", Params: params, Trace: &cfg})
		if err != nil {
			return err
		}
		recs := res.Stats.SPERecords
		ms := cyclesToMs(res.Cycles)
		rate := 0.0
		if ms > 0 {
			rate = float64(recs) / ms
		}
		fmt.Fprintf(tw, "%d\t%.0f\t%.2f\t%d\n",
			gap, rate, Overhead(base.Cycles, res.Cycles), res.Stats.FlushCycles)
	}
	return tw.Flush()
}

// --------------------------------------------------------------- E10 ----

func runE10(w io.Writer, quick bool) error {
	events := 50000
	if quick {
		events = 5000
	}
	cfg := core.DefaultTraceConfig()
	res, err := Run(Spec{
		Workload: "synthetic",
		Params:   map[string]string{"events": fmt.Sprint(events), "gap": "200"},
		Trace:    &cfg,
	})
	if err != nil {
		return err
	}
	recs := res.Stats.SPERecords + res.Stats.PPERecords

	start := time.Now()
	tr, err := analyzer.Load(bytes.NewReader(res.TraceBytes))
	if err != nil {
		return err
	}
	loadDur := time.Since(start)
	start = time.Now()
	analyzer.Validate(tr)
	s := analyzer.Summarize(tr)
	analyzeDur := time.Since(start)

	tw := newTab(w)
	fmt.Fprintln(tw, "phase\trecords\thost time\trecords/s")
	fmt.Fprintf(tw, "load+merge\t%d\t%v\t%.0f\n", recs, loadDur, float64(recs)/loadDur.Seconds())
	fmt.Fprintf(tw, "validate+summarize\t%d\t%v\t%.0f\n", recs, analyzeDur, float64(recs)/analyzeDur.Seconds())
	fmt.Fprintf(tw, "trace size\t%d bytes\t%.1f B/record\t\n", len(res.TraceBytes), float64(len(res.TraceBytes))/float64(recs))
	if err := tw.Flush(); err != nil {
		return err
	}
	_ = s
	return nil
}

// --------------------------------------------------------------- E11 ----

// runE11 is the machine-model ablation DESIGN.md commits to: the STREAM
// triad swept over SPE counts and machine bandwidth parameters. Expected
// shape: bandwidth scales with SPEs until the memory interface saturates;
// halving MemBytesPerCycle halves the plateau; EIB rings only matter when
// they are scarcer than concurrent transfers.
func runE11(w io.Writer, quick bool) error {
	elements := 1 << 19
	if quick {
		elements = 1 << 16
	}
	type variant struct {
		name string
		mut  func(*cell.Config)
	}
	variants := []variant{
		{"baseline (8B/c mem, 4 rings)", nil},
		{"half memory bw (4B/c)", func(c *cell.Config) { c.MemBytesPerCycle = 4 }},
		{"single EIB ring", func(c *cell.Config) { c.EIBRings = 1 }},
	}
	spes := []int{1, 2, 4, 8}
	if quick {
		spes = []int{1, 8}
		variants = variants[:2]
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "machine\tSPEs\tcycles\tGB/s")
	for _, v := range variants {
		for _, n := range spes {
			res, err := Run(Spec{
				Workload:   "stream",
				Params:     map[string]string{"elements": fmt.Sprint(elements)},
				NumSPEs:    n,
				MachineMut: v.mut,
			})
			if err != nil {
				return err
			}
			bytes := float64(elements) * 12
			seconds := float64(res.Cycles) / float64(core.NominalClockHz)
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\n", v.name, n, res.Cycles, bytes/seconds/1e9)
		}
	}
	return tw.Flush()
}
