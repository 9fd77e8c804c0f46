package workloads

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core"
)

// runWorkload configures, prepares, runs and verifies a workload on a
// fresh machine, optionally traced, returning machine and trace.
func runWorkload(t *testing.T, name string, params map[string]string, traced bool) (*cell.Machine, *analyzer.Trace) {
	t.Helper()
	w, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Configure(params); err != nil {
		t.Fatal(err)
	}
	mc := cell.DefaultConfig()
	mc.MemSize = 64 * cell.MiB
	m := cell.NewMachine(mc)
	var s *core.Session
	if traced {
		cfg := core.DefaultTraceConfig()
		cfg.Workload = name
		cfg.Params = w.Params()
		s = core.NewSession(m, cfg)
		s.Attach()
	}
	if err := w.Prepare(m); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(m); err != nil {
		t.Fatal(err)
	}
	var tr *analyzer.Trace
	if traced {
		var buf bytes.Buffer
		if err := s.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		tr, err = analyzer.Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if errs := analyzer.Errors(analyzer.Validate(tr)); len(errs) != 0 {
			t.Fatalf("trace validation: %v", errs)
		}
	}
	return m, tr
}

// rejectsAll fails t unless a fresh workload of the named kind rejects
// each configuration in bad: no case inherits a field an earlier one left
// out of range.
func rejectsAll(t *testing.T, name string, bad []map[string]string) {
	t.Helper()
	for _, params := range bad {
		w, _ := New(name)
		if err := w.Configure(params); err == nil {
			t.Fatalf("%s accepted %v", name, params)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 11 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		w, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		if Description(n) == "" {
			t.Fatalf("%s has no description", n)
		}
		if len(w.Params()) == 0 {
			t.Fatalf("%s has no params", n)
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestAllWorkloadsRejectUnknownParam(t *testing.T) {
	for _, n := range Names() {
		rejectsAll(t, n, []map[string]string{{"definitely-bogus": "1"}})
	}
}

// TestConfigureFirstErrorIsFixed: with two faults in one configuration
// the error names the same one every time — the first bad value in list
// order, the smallest unknown key.
func TestConfigureFirstErrorIsFixed(t *testing.T) {
	for _, c := range []struct {
		params map[string]string
		want   string
	}{
		{map[string]string{"blocks": "x", "seed": "y"}, `workloads: parameter blocks="x"`},
		{map[string]string{"zeta": "1", "alpha": "1", "seed": "y"}, `workloads: unknown parameter "alpha"`},
	} {
		for i := 0; i < 100; i++ {
			err := NewPipeline().Configure(c.params)
			if err == nil || !strings.HasPrefix(err.Error(), c.want) {
				t.Fatalf("call %d: %v, want prefix %s", i, err, c.want)
			}
		}
	}
}

// TestParamsRoundTrip: at its defaults and at its small size, every
// workload reports each listed key once, accepts its own Params and
// reports them back unchanged.
func TestParamsRoundTrip(t *testing.T) {
	for _, n := range Names() {
		for _, params := range []map[string]string{nil, Small(n)} {
			w, _ := New(n)
			if err := w.Configure(params); err != nil {
				t.Fatalf("%s %v: %v", n, params, err)
			}
			want := w.Params()
			if list := w.(interface{ params() []param }).params(); len(want) != len(list) {
				t.Fatalf("%s: Params() has %d keys, params() lists %d", n, len(want), len(list))
			}
			for k, v := range params {
				if want[k] != v {
					t.Fatalf("%s: Params()[%s] = %q, configured %q", n, k, want[k], v)
				}
			}
			again, _ := New(n)
			if err := again.Configure(want); err != nil {
				t.Fatalf("%s: Configure(Params()): %v", n, err)
			}
			if got := again.Params(); !maps.Equal(got, want) {
				t.Fatalf("%s: Params() = %v after Configure(%v)", n, got, want)
			}
		}
	}
	small := Small("julia")
	small["mode"] = "static"
	if Small("julia")["mode"] != "dynamic" {
		t.Fatal("Small shares its map with the caller")
	}
}

func TestPartition(t *testing.T) {
	covered := map[int]bool{}
	for w := 0; w < 5; w++ {
		s, e := partition(23, 5, w)
		if e < s {
			t.Fatalf("worker %d: [%d,%d)", w, s, e)
		}
		for i := s; i < e; i++ {
			if covered[i] {
				t.Fatalf("item %d covered twice", i)
			}
			covered[i] = true
		}
	}
	if len(covered) != 23 {
		t.Fatalf("covered %d of 23", len(covered))
	}
}

func TestMatmulSmallUntraced(t *testing.T) {
	runWorkload(t, "matmul", map[string]string{"n": "64", "t": "16", "buffers": "1"}, false)
}

func TestMatmulDoubleBufferedTraced(t *testing.T) {
	_, tr := runWorkload(t, "matmul", map[string]string{"n": "128", "t": "32", "buffers": "2"}, true)
	s := analyzer.Summarize(tr)
	if len(s.Runs) != 8 {
		t.Fatalf("runs = %d", len(s.Runs))
	}
	var gets int
	for _, d := range s.DMA {
		gets += d.Gets
	}
	// 16 C tiles, 4 k-steps, 2 operand fetches each = 128 GETs total.
	if gets != 128 {
		t.Fatalf("total GETs = %d, want 128", gets)
	}
}

// TestMatmulFullVerification checks every entry of C, bit for bit,
// against a float32 reference that adds an entry's products one at a
// time in k order, each product rounded to float32 on its own. Verify
// only samples C within a tolerance, and the trace does not carry C. The
// zeroA cases clear some A entries after Prepare, so the kernel's
// four-step groups also take the one-step path that skips a zero.
func TestMatmulFullVerification(t *testing.T) {
	for _, tc := range []struct {
		n, t  int
		zeroA bool
	}{{32, 8, false}, {32, 8, true}, {64, 32, false}, {64, 32, true}} {
		t.Run(fmt.Sprintf("n=%d/t=%d/zeroA=%v", tc.n, tc.t, tc.zeroA), func(t *testing.T) {
			w := NewMatmul()
			if err := w.Configure(map[string]string{"n": fmt.Sprint(tc.n), "t": fmt.Sprint(tc.t)}); err != nil {
				t.Fatal(err)
			}
			mc := cell.DefaultConfig()
			mc.MemSize = 16 * cell.MiB
			m := cell.NewMachine(mc)
			if err := w.Prepare(m); err != nil {
				t.Fatal(err)
			}
			n := tc.n
			at := func(base uint64, i, j int) []byte {
				return m.Mem()[w.tileEA(base, i/w.T, j/w.T)+uint64(4*((i%w.T)*w.T+j%w.T)):][:4]
			}
			read := func(base uint64, i, j int) float32 {
				return math.Float32frombits(binary.LittleEndian.Uint32(at(base, i, j)))
			}
			if tc.zeroA {
				// Row 1 whole, and about one entry in seven elsewhere.
				for i := 0; i < n; i++ {
					for k := 0; k < n; k++ {
						if i == 1 || (i+2*k)%7 == 0 {
							binary.LittleEndian.PutUint32(at(w.aEA, i, k), 0)
						}
					}
				}
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if err := w.Verify(m); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var want float32
					for k := 0; k < n; k++ {
						want += float32(read(w.aEA, i, k) * read(w.bEA, k, j))
					}
					if got := read(w.cEA, i, j); math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("C[%d][%d] = %g (%#08x), want %g (%#08x)",
							i, j, got, math.Float32bits(got), want, math.Float32bits(want))
					}
				}
			}
		})
	}
}

func TestMatmulDoubleBufferFaster(t *testing.T) {
	run := func(buffers string) uint64 {
		m, _ := runWorkload(t, "matmul", map[string]string{"n": "128", "t": "32", "buffers": buffers}, false)
		return m.Now()
	}
	single := run("1")
	double := run("2")
	if double >= single {
		t.Fatalf("double buffering (%d cycles) not faster than single (%d)", double, single)
	}
}

func TestMatmulConfigValidation(t *testing.T) {
	rejectsAll(t, "matmul", []map[string]string{
		{"n": "100", "t": "64"},  // N not multiple of T
		{"t": "3"},               // not multiple of 4
		{"t": "128", "n": "256"}, // tile exceeds DMA limit
		{"buffers": "3"},         // invalid
		{"n": "abc"},             // parse error
	})
}

func TestFFTSmall(t *testing.T) {
	runWorkload(t, "fft", map[string]string{"n": "256", "batches": "16"}, false)
}

func TestFFTTraced(t *testing.T) {
	_, tr := runWorkload(t, "fft", map[string]string{"n": "1024", "batches": "16"}, true)
	s := analyzer.Summarize(tr)
	var in, out uint64
	for _, d := range s.DMA {
		in += d.BytesIn
		out += d.BytesOut
	}
	want := uint64(16 * 1024 * 8)
	if in != want || out != want {
		t.Fatalf("bytes in/out = %d/%d, want %d", in, out, want)
	}
}

func TestFFTConfigValidation(t *testing.T) {
	rejectsAll(t, "fft", []map[string]string{
		{"n": "100"},     // not power of two
		{"n": "2"},       // too small
		{"batches": "0"}, // zero
		{"n": "65536"},   // batch too large for LS budget
	})
}

func TestFFTInPlaceMatchesReference(t *testing.T) {
	const n = 64
	re := make([]float32, n)
	im := make([]float32, n)
	lcgFloats(re, 11)
	lcgFloats(im, 22)
	ref := make([]complex128, n)
	for i := range ref {
		ref[i] = complex(float64(re[i]), float64(im[i]))
	}
	want := refFFT(ref)
	fftInPlace(re, im)
	for i := range want {
		if d := float64(re[i]) - real(want[i]); d > 1e-3 || d < -1e-3 {
			t.Fatalf("re[%d] = %g, want %g", i, re[i], real(want[i]))
		}
		if d := float64(im[i]) - imag(want[i]); d > 1e-3 || d < -1e-3 {
			t.Fatalf("im[%d] = %g, want %g", i, im[i], imag(want[i]))
		}
	}
}

func TestPipelineBalanced(t *testing.T) {
	runWorkload(t, "pipeline", map[string]string{"blocks": "16", "blockbytes": "1024"}, false)
}

func TestPipelineSlowStageTraced(t *testing.T) {
	_, tr := runWorkload(t, "pipeline",
		map[string]string{"blocks": "24", "blockbytes": "2048", "slowstage": "3", "slowfactor": "16"}, true)
	s := analyzer.Summarize(tr)
	// The slow stage must have the highest busy time of all stages.
	var slowBusy, maxOther uint64
	for _, r := range s.Runs {
		if r.Core == 3 {
			slowBusy = r.Busy()
		} else if r.Busy() > maxOther {
			maxOther = r.Busy()
		}
	}
	if slowBusy <= maxOther {
		t.Fatalf("slow stage busy %d not above other stages' max %d", slowBusy, maxOther)
	}
}

func TestPipelineFourStages(t *testing.T) {
	runWorkload(t, "pipeline", map[string]string{"stages": "4", "blocks": "12", "blockbytes": "512"}, false)
}

func TestPipelineConfigValidation(t *testing.T) {
	rejectsAll(t, "pipeline", []map[string]string{
		{"blockbytes": "100"},   // not multiple of 16
		{"blockbytes": "32768"}, // over DMA limit
		{"blocks": "0"},
		{"slowfactor": "0"},
	})
}

func TestJuliaStatic(t *testing.T) {
	runWorkload(t, "julia", map[string]string{"w": "128", "h": "64", "maxiter": "64"}, false)
}

func TestJuliaDynamic(t *testing.T) {
	runWorkload(t, "julia", map[string]string{"w": "128", "h": "64", "maxiter": "64", "mode": "dynamic"}, false)
}

func TestJuliaDynamicBalancesLoad(t *testing.T) {
	imbalance := func(mode string) float64 {
		_, tr := runWorkload(t, "julia",
			map[string]string{"w": "256", "h": "128", "maxiter": "128", "mode": mode}, true)
		return analyzer.Summarize(tr).LoadImbalance
	}
	static := imbalance("static")
	dynamic := imbalance("dynamic")
	if dynamic >= static {
		t.Fatalf("dynamic imbalance %.3f not below static %.3f", dynamic, static)
	}
}

func TestJuliaDynamicFasterOnSkewedWork(t *testing.T) {
	run := func(mode string) uint64 {
		m, _ := runWorkload(t, "julia",
			map[string]string{"w": "256", "h": "128", "maxiter": "128", "mode": mode}, false)
		return m.Now()
	}
	static := run("static")
	dynamic := run("dynamic")
	if dynamic >= static {
		t.Fatalf("dynamic (%d cycles) not faster than static (%d)", dynamic, static)
	}
}

func TestJuliaConfigValidation(t *testing.T) {
	rejectsAll(t, "julia", []map[string]string{
		{"w": "100"},       // not multiple of 16
		{"maxiter": "300"}, // > 255
		{"mode": "magic"},  // unknown
		{"h": "0"},
	})
}

func TestHistogramAtomic(t *testing.T) {
	runWorkload(t, "histogram", map[string]string{"size": "262144"}, false)
}

func TestHistogramPPEReduce(t *testing.T) {
	runWorkload(t, "histogram", map[string]string{"size": "262144", "reduce": "ppe"}, false)
}

func TestHistogramTracedAtomicEvents(t *testing.T) {
	_, tr := runWorkload(t, "histogram", map[string]string{"size": "131072"}, true)
	s := analyzer.Summarize(tr)
	if s.TotalState(analyzer.StateStallSync) == 0 {
		t.Fatal("atomic reduce produced no sync-wait time")
	}
}

func TestHistogramConfigValidation(t *testing.T) {
	rejectsAll(t, "histogram", []map[string]string{
		{"size": "100"}, // not multiple of 16
		{"size": "0"},
		{"reduce": "tree"}, // unknown
	})
}

func TestWorkloadsTracedVsUntracedSameResult(t *testing.T) {
	// Tracing must not change computed results, only timing.
	for _, tc := range []struct {
		name   string
		params map[string]string
	}{
		{"matmul", map[string]string{"n": "64", "t": "16"}},
		{"fft", map[string]string{"n": "256", "batches": "8"}},
		{"pipeline", map[string]string{"blocks": "8", "blockbytes": "512"}},
		{"julia", map[string]string{"w": "64", "h": "32", "maxiter": "32"}},
		{"histogram", map[string]string{"size": "65536"}},
	} {
		runWorkload(t, tc.name, tc.params, false)
		runWorkload(t, tc.name, tc.params, true) // Verify() runs in both
	}
}
