package harness

import (
	"bytes"
	"fmt"
	"strings"
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
	// Run regenerates the experiment's tables. quick shrinks problem
	// sizes for smoke tests; full sizes reproduce the recorded results.
	Run func(quick bool) ([]*Table, error)
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

// workload names one workload and its parameters.
type workload struct {
	name   string
	params map[string]string
}

// traced runs wl under the default trace configuration, adjusted by set
// when set is non-nil.
func traced(wl workload, set func(*core.Config)) (*Result, error) {
	cfg := core.DefaultTraceConfig()
	if set != nil {
		set(&cfg)
	}
	return Run(Spec{Workload: wl.name, Params: wl.params, Trace: &cfg})
}

// cyclesToMs converts simulated cycles to milliseconds at the nominal
// 3.2 GHz clock.
func cyclesToMs(c uint64) float64 { return float64(c) / float64(core.NominalClockHz) * 1e3 }

// cyclesToNs converts simulated cycles to nanoseconds.
func cyclesToNs(c float64) float64 { return c / float64(core.NominalClockHz) * 1e9 }

// perMs is n per simulated millisecond of a run of the given cycles.
func perMs(n, cycles uint64) float64 {
	ms := cyclesToMs(cycles)
	if ms == 0 {
		return 0
	}
	return float64(n) / ms
}

// ---------------------------------------------------------------- E1 ----

func runE1(quick bool) ([]*Table, error) {
	t := newTable("event\tgroup\tkind\targs\trecord bytes", "%s\t%s\t%s\t%s\t%d")
	kinds := map[event.Kind]string{event.KindPoint: "point", event.KindEnter: "enter", event.KindExit: "exit"}
	for _, info := range event.All() {
		r := event.Record{ID: info.ID, Args: make([]uint64, len(info.Args))}
		t.add(info.Name, info.Group, kinds[info.Kind], strings.Join(info.Args, ","), r.EncodedSize())
	}
	return []*Table{t}, nil
}

// ---------------------------------------------------------------- E2 ----

// runE2 measures the effective cost of tracing one occurrence of each
// operation class: the same SPE loop runs untraced and fully traced, and
// the cycle delta is divided by the iteration count. A second table
// lists the configured model costs of the API-call classes for reference.
func runE2(quick bool) ([]*Table, error) {
	iters := 2000
	if quick {
		iters = 200
	}
	// The synthetic workload emits exactly one user event per iteration.
	wl := workload{"synthetic", map[string]string{"events": fmt.Sprint(iters), "gap": "500"}}
	base, err := Run(Spec{Workload: wl.name, Params: wl.params})
	if err != nil {
		return nil, err
	}
	res, err := traced(wl, nil)
	if err != nil {
		return nil, err
	}
	perIterBase := float64(base.Cycles) / float64(iters)
	perIterTraced := float64(res.Cycles) / float64(iters)
	delta := perIterTraced - perIterBase
	ops := newTable("operation\trecords/op\tcycles/op untraced\tcycles/op traced\tdelta cycles\tdelta ns",
		"%s\t%d\t%.0f\t%.0f\t%.0f\t%.1f")
	ops.add("user event", 1, perIterBase, perIterTraced, delta, cyclesToNs(delta))

	cfg := core.DefaultTraceConfig()
	costs := newTable("configured instrumentation cost\tcycles\tns", "%s\t%d\t%.1f")
	costs.add("SPE event record", cfg.SPEEventCost, cyclesToNs(float64(cfg.SPEEventCost)))
	costs.add("PPE event record", cfg.PPEEventCost, cyclesToNs(float64(cfg.PPEEventCost)))
	costs.add("records per DMA get+wait", 3, cyclesToNs(float64(3*cfg.SPEEventCost)))
	costs.add("records per mailbox write+read pair", 4, cyclesToNs(float64(2*cfg.SPEEventCost+2*cfg.PPEEventCost)))
	return []*Table{ops, costs}, nil
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
func e3Workloads(quick bool) []workload {
	if quick {
		return []workload{
			{"matmul", map[string]string{"n": "128", "t": "32"}},
			{"julia", map[string]string{"w": "128", "h": "64", "maxiter": "64"}},
		}
	}
	return []workload{
		{"matmul", map[string]string{"n": "256", "t": "64"}},
		{"fft", map[string]string{"n": "1024", "batches": "48"}},
		{"pipeline", map[string]string{"blocks": "48", "blockbytes": "4096"}},
		{"julia", map[string]string{"w": "512", "h": "256", "maxiter": "200", "mode": "dynamic"}},
		{"histogram", map[string]string{"size": fmt.Sprint(1 << 20)}},
	}
}

func runE3(quick bool) ([]*Table, error) {
	t := newTable("workload\tconfig\tcycles\toverhead %\trecords\trecords/ms", "%s\t%s\t%d\t%.2f\t%d\t%.0f")
	for _, wl := range e3Workloads(quick) {
		base, err := Run(Spec{Workload: wl.name, Params: wl.params})
		if err != nil {
			return nil, err
		}
		t.addf("%s\t%s\t%d\t0.0\t0\t0", wl.name, "untraced", base.Cycles)
		for _, lvl := range traceLevels() {
			res, err := traced(wl, func(c *core.Config) { c.Groups = lvl.Groups })
			if err != nil {
				return nil, err
			}
			recs := res.Stats.SPERecords + res.Stats.PPERecords
			t.add(wl.name, lvl.Name, res.Cycles, Overhead(base.Cycles, res.Cycles), recs, perMs(recs, res.Cycles))
		}
	}
	return []*Table{t}, nil
}

// ---------------------------------------------------------------- E4 ----

func runE4(quick bool) ([]*Table, error) {
	events, gap := 20000, 300
	sizes := []int{1024, 2048, 4096, 8192, 16384, 32768}
	if quick {
		events = 2000
		sizes = []int{1024, 4096, 16384}
	}
	wl := workload{"synthetic", map[string]string{"events": fmt.Sprint(events), "gap": fmt.Sprint(gap)}}
	base, err := Run(Spec{Workload: wl.name, Params: wl.params})
	if err != nil {
		return nil, err
	}
	t := newTable("buffer KiB\tmode\toverhead %\tflushes\tflush cycles\tdropped", "%d\t%s\t%.2f\t%d\t%d\t%d")
	for _, size := range sizes {
		for _, double := range []bool{false, true} {
			res, err := traced(wl, func(c *core.Config) {
				c.SPEBufferSize = size
				c.DoubleBuffered = double
			})
			if err != nil {
				return nil, err
			}
			mode := "single"
			if double {
				mode = "double"
			}
			t.add(size/1024, mode, Overhead(base.Cycles, res.Cycles),
				res.Stats.Flushes, res.Stats.FlushCycles, res.Stats.Dropped)
		}
	}
	return []*Table{t}, nil
}

// ---------------------------------------------------------------- E5 ----

func runE5(quick bool) ([]*Table, error) {
	params := map[string]string{"w": "512", "h": "256", "maxiter": "200"}
	if quick {
		params = map[string]string{"w": "128", "h": "64", "maxiter": "64"}
	}
	t := newTable("mode\tSPE\tbusy ticks\tsync-wait ticks\tutil %", "%s\t%d\t%d\t%d\t%.1f")
	var wall [2]uint64
	for i, mode := range []string{"static", "dynamic"} {
		p := map[string]string{"mode": mode}
		for k, v := range params {
			p[k] = v
		}
		res, err := traced(workload{"julia", p}, nil)
		if err != nil {
			return nil, err
		}
		wall[i] = res.Cycles
		s := analyzer.Summarize(res.Trace)
		for _, r := range s.Runs {
			t.add(mode, r.Core, r.Busy(), r.StateTicks[analyzer.StateStallSync], 100*r.Utilization())
		}
		t.addf("%s\t%s\timbalance %.3f\twall %d cycles\t", mode, "all", s.LoadImbalance, res.Cycles)
	}
	t.notes = append(t.notes, fmt.Sprintf("dynamic speedup over static: %.2fx", float64(wall[0])/float64(wall[1])))
	return []*Table{t}, nil
}

// ---------------------------------------------------------------- E6 ----

func runE6(quick bool) ([]*Table, error) {
	n := "256"
	tiles := []string{"16", "32", "64"} // compute:DMA ratio grows with T
	if quick {
		n = "128"
		tiles = []string{"32"}
	}
	t := newTable("tile\tbuffers\twall cycles\tcompute ticks\tdma-wait ticks\tdma-wait %\tspeedup",
		"%s\t%s\t%d\t%d\t%d\t%.1f\t%.2fx")
	for _, tile := range tiles {
		var single uint64
		for _, buffers := range []string{"1", "2"} {
			wl := workload{"matmul", map[string]string{"n": n, "t": tile, "buffers": buffers}}
			res, err := traced(wl, func(c *core.Config) {
				c.Groups = event.GroupLifecycle | event.GroupMFC // low-perturbation tracing
			})
			if err != nil {
				return nil, err
			}
			s := analyzer.Summarize(res.Trace)
			compute := s.TotalState(analyzer.StateCompute)
			dma := s.TotalState(analyzer.StateStallDMA)
			frac := 0.0
			if compute+dma > 0 {
				frac = 100 * float64(dma) / float64(compute+dma)
			}
			if buffers == "1" {
				single = res.Cycles
				t.addf("%s\t%s\t%d\t%d\t%d\t%.1f\t", tile, buffers, res.Cycles, compute, dma, frac)
				continue
			}
			t.add(tile, buffers, res.Cycles, compute, dma, frac, float64(single)/float64(res.Cycles))
		}
	}
	return []*Table{t}, nil
}

// ---------------------------------------------------------------- E7 ----

func runE7(quick bool) ([]*Table, error) {
	params := map[string]string{"blocks": "48", "blockbytes": "4096", "slowstage": "3", "slowfactor": "12"}
	if quick {
		params = map[string]string{"blocks": "16", "blockbytes": "1024", "slowstage": "2", "slowfactor": "8", "stages": "4"}
	}
	res, err := traced(workload{"pipeline", params}, nil)
	if err != nil {
		return nil, err
	}
	s := analyzer.Summarize(res.Trace)
	t := newTable("stage\tbusy ticks\tsync-wait ticks\tmbox-wait ticks\tdma-wait ticks\tutil %", "%d\t%d\t%d\t%d\t%d\t%.1f")
	for _, r := range s.Runs {
		t.add(r.Core, r.Busy(), r.StateTicks[analyzer.StateStallSync],
			r.StateTicks[analyzer.StateStallMbox], r.StateTicks[analyzer.StateStallDMA],
			100*r.Utilization())
	}
	return []*Table{t}, nil
}

// ---------------------------------------------------------------- E8 ----

func runE8(quick bool) ([]*Table, error) {
	t := newTable("workload\trecords\ttrace bytes\tbytes/record\trecords/ms\tflush bytes", "%s\t%d\t%d\t%.1f\t%.0f\t%d")
	for _, wl := range e3Workloads(quick) {
		res, err := traced(wl, nil)
		if err != nil {
			return nil, err
		}
		recs := res.Stats.SPERecords + res.Stats.PPERecords
		bpr := 0.0
		if recs > 0 {
			bpr = float64(len(res.TraceBytes)) / float64(recs)
		}
		t.add(wl.name, recs, len(res.TraceBytes), bpr, perMs(recs, res.Cycles), res.Stats.FlushBytes)
	}
	return []*Table{t}, nil
}

// ---------------------------------------------------------------- E9 ----

func runE9(quick bool) ([]*Table, error) {
	gaps := []int{100, 300, 1000, 3000, 10000, 30000}
	events := 10000
	if quick {
		gaps = []int{300, 3000, 30000}
		events = 1000
	}
	t := newTable("gap cycles\tevents/ms (sim)\toverhead %\tflush cycles", "%d\t%.0f\t%.2f\t%d")
	for _, gap := range gaps {
		wl := workload{"synthetic", map[string]string{"events": fmt.Sprint(events), "gap": fmt.Sprint(gap)}}
		base, err := Run(Spec{Workload: wl.name, Params: wl.params})
		if err != nil {
			return nil, err
		}
		res, err := traced(wl, nil)
		if err != nil {
			return nil, err
		}
		t.add(gap, perMs(res.Stats.SPERecords, res.Cycles), Overhead(base.Cycles, res.Cycles), res.Stats.FlushCycles)
	}
	return []*Table{t}, nil
}

// --------------------------------------------------------------- E10 ----

func runE10(quick bool) ([]*Table, error) {
	events := 50000
	if quick {
		events = 5000
	}
	res, err := traced(workload{"synthetic", map[string]string{"events": fmt.Sprint(events), "gap": "200"}}, nil)
	if err != nil {
		return nil, err
	}
	recs := res.Stats.SPERecords + res.Stats.PPERecords

	start := time.Now()
	tr, err := analyzer.Load(bytes.NewReader(res.TraceBytes))
	if err != nil {
		return nil, err
	}
	loadDur := time.Since(start)
	start = time.Now()
	analyzer.Validate(tr)
	analyzer.Summarize(tr)
	analyzeDur := time.Since(start)

	t := newTable("phase\trecords\thost time\trecords/s", "%s\t%d\t%v\t%.0f")
	t.add("load+merge", recs, loadDur, float64(recs)/loadDur.Seconds())
	t.add("validate+summarize", recs, analyzeDur, float64(recs)/analyzeDur.Seconds())
	t.addf("%s\t%d bytes\t%.1f B/record\t", "trace size", len(res.TraceBytes), float64(len(res.TraceBytes))/float64(recs))
	return []*Table{t}, nil
}

// --------------------------------------------------------------- E11 ----

// runE11 is the machine-model ablation DESIGN.md commits to: the STREAM
// triad swept over SPE counts and machine bandwidth parameters. Expected
// shape: bandwidth scales with SPEs until the memory interface saturates;
// halving MemBytesPerCycle halves the plateau; EIB rings only matter when
// they are scarcer than concurrent transfers.
func runE11(quick bool) ([]*Table, error) {
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
	t := newTable("machine\tSPEs\tcycles\tGB/s", "%s\t%d\t%d\t%.1f")
	for _, v := range variants {
		for _, n := range spes {
			res, err := Run(Spec{
				Workload:   "stream",
				Params:     map[string]string{"elements": fmt.Sprint(elements)},
				NumSPEs:    n,
				MachineMut: v.mut,
			})
			if err != nil {
				return nil, err
			}
			bytes := float64(elements) * 12
			seconds := float64(res.Cycles) / float64(core.NominalClockHz)
			t.add(v.name, n, res.Cycles, bytes/seconds/1e9)
		}
	}
	return []*Table{t}, nil
}
