// Package workloads implements the Cell applications used by the paper's
// use cases and overhead evaluation: a blocked matrix multiply (single- or
// double-buffered DMA), a batched FFT, an SPE-to-SPE stream pipeline, a
// Julia-set renderer (static or dynamic partitioning), and a histogram
// reduction. Every workload moves real data through the machine model and
// verifies its numeric result after the run, so instrumentation bugs that
// perturb semantics fail tests immediately.
//
// Workloads are written against the cell.SPU / cell.Host interfaces and
// therefore run identically traced and untraced — the property the
// tracing-overhead experiments depend on.
package workloads

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"

	"github.com/celltrace/pdt/internal/cell"
)

// Workload is one configurable, self-verifying benchmark.
type Workload interface {
	// Configure applies string parameters; unknown keys or bad values
	// are errors. Call before Prepare.
	Configure(params map[string]string) error
	// Params reports the effective configuration (for trace metadata).
	Params() map[string]string
	// Prepare allocates inputs in machine memory and installs the PPE
	// main program via m.RunMain. SPE count is taken from the machine.
	Prepare(m *cell.Machine) error
	// Verify checks the computed output after m.Run returns.
	Verify(m *cell.Machine) error
}

// entry is one registered workload: its constructor with the defaults,
// a one-line summary for CLI listings, and its small size.
type entry struct {
	new  func() Workload
	desc string
	// small is a small but representative configuration: a traced run
	// takes tens of milliseconds yet produces every record mix the
	// workload has. The analyzer suites and pdt-load run it.
	small map[string]string
}

// registry is the one place a workload is named.
var registry = map[string]entry{
	"matmul": {func() Workload { return NewMatmul() },
		"blocked float32 matrix multiply, single- or double-buffered tile DMA",
		map[string]string{"n": "64", "t": "16"}},
	"fft": {func() Workload { return NewFFT() },
		"batched 1-D complex float32 FFT over SPEs (radix-2, in-place)",
		map[string]string{"n": "256", "batches": "4"}},
	"pipeline": {func() Workload { return NewPipeline() },
		"SPE-to-SPE stream pipeline with two-slot inboxes; optional slow stage bottleneck",
		map[string]string{"blocks": "8", "blockbytes": "1024"}},
	"julia": {func() Workload { return NewJulia() },
		"Julia-set renderer; static vs dynamic (work queue) row partitioning",
		map[string]string{"w": "64", "h": "32", "maxiter": "16", "mode": "dynamic"}},
	"histogram": {func() Workload { return NewHistogram() },
		"256-bin byte histogram; atomic vs PPE-side reduction",
		map[string]string{"size": "65536"}},
	"synthetic": {func() Workload { return NewSynthetic() },
		"controlled user-event rate generator for overhead experiments",
		map[string]string{"events": "400", "gap": "100"}},
	"stream": {func() Workload { return NewStream() },
		"STREAM triad a=b+q*c over float32 arrays; memory-bandwidth bound",
		map[string]string{"elements": "8192"}},
	"stencil": {func() Workload { return NewStencil() },
		"Jacobi 5-point stencil; LS-resident blocks, halo exchange via SPE-to-SPE DMA + fenced sndsig",
		map[string]string{"w": "64", "h": "16", "iters": "2"}},
	"sort": {func() Workload { return NewSort() },
		"distributed sort: SPE-local chunk sorts + PPE k-way merge",
		map[string]string{"elements": "8192", "chunk": "1024"}},
	"nbody": {func() Workload { return NewNBody() },
		"all-pairs n-body via the SPE ring algorithm (blocks circulate LS-to-LS)",
		map[string]string{"n": "64"}},
	"taskfarm": {func() Workload { return NewTaskFarm() },
		"self-scheduling task farm over main-storage MPMC queues",
		map[string]string{"tasks": "16", "blockbytes": "1024"}},
}

// New instantiates a registered workload with default parameters.
func New(name string) (Workload, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names())
	}
	return e.new(), nil
}

// Names lists the registered workloads, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Description is the one-line summary of a registered workload.
func Description(name string) string { return registry[name].desc }

// Small returns a fresh copy of a registered workload's small
// configuration; callers may edit it.
func Small(name string) map[string]string { return maps.Clone(registry[name].small) }

// param binds one configuration key to the field that holds it, an *int
// or a *string. A workload lists its params once; Configure and Params
// both read the list.
type param struct {
	key string
	val any
}

// configure applies params to the fields of list. An unknown key is an
// error (the smallest, when there are several); values are parsed in
// list order and the first bad one is the error.
func configure(params map[string]string, list []param) error {
	known := make([]string, len(list))
	for i, p := range list {
		known[i] = p.key
	}
	var unknown []string
	for k := range params {
		if !slices.Contains(known, k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		return fmt.Errorf("workloads: unknown parameter %q (known: %v)", slices.Min(unknown), known)
	}
	for _, p := range list {
		s, ok := params[p.key]
		if !ok {
			continue
		}
		switch v := p.val.(type) {
		case *int:
			n, err := strconv.Atoi(s)
			if err != nil {
				return fmt.Errorf("workloads: parameter %s=%q: %v", p.key, s, err)
			}
			*v = n
		case *string:
			*v = s
		}
	}
	return nil
}

// paramMap reports the current values of list's fields.
func paramMap(list []param) map[string]string {
	out := make(map[string]string, len(list))
	for _, p := range list {
		switch v := p.val.(type) {
		case *int:
			out[p.key] = strconv.Itoa(*v)
		case *string:
			out[p.key] = *v
		}
	}
	return out
}

// FlopsPerCycle is the modeled SPE single-precision throughput (4-wide
// FMA: 8 flops/cycle, 25.6 GFLOPS at 3.2 GHz).
const FlopsPerCycle = 8

// flopCycles converts a flop count to modeled SPU cycles.
func flopCycles(flops uint64) uint64 {
	c := flops / FlopsPerCycle
	if c == 0 {
		c = 1
	}
	return c
}

// The byte and float streams come from one linear congruential generator,
// x ← a·x + c mod 2³². Four steps at once are x ← a⁴·x + c₄, with
// c₄ = a²·c₂ + c₂ and c₂ = a·c + c. Four interleaved chains that each
// jump four steps produce the same stream without every draw waiting on
// the multiply before it.
const (
	lcgA  = 1664525
	lcgC  = 1013904223
	lcgA2 = lcgA * lcgA % (1 << 32)
	lcgC2 = (lcgA*lcgC + lcgC) % (1 << 32)
	lcgA4 = lcgA2 * lcgA2 % (1 << 32)
	lcgC4 = (lcgA2*lcgC2 + lcgC2) % (1 << 32)
)

// lcgChains returns the four draws after x, the heads of the four chains.
func lcgChains(x uint32) (x0, x1, x2, x3 uint32) {
	x0 = x*lcgA + lcgC
	x1 = x0*lcgA + lcgC
	x2 = x1*lcgA + lcgC
	x3 = x2*lcgA + lcgC
	return
}

// lcg fills dst with a deterministic byte stream from seed: byte i is the
// top byte of draw i+1.
func lcg(dst []byte, seed uint32) {
	x0, x1, x2, x3 := lcgChains(seed | 1)
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d := dst[i : i+4 : i+4]
		d[0], d[1], d[2], d[3] = byte(x0>>24), byte(x1>>24), byte(x2>>24), byte(x3>>24)
		x0, x1 = x0*lcgA4+lcgC4, x1*lcgA4+lcgC4
		x2, x3 = x2*lcgA4+lcgC4, x3*lcgA4+lcgC4
	}
	for x := x0; i < len(dst); i++ {
		dst[i] = byte(x >> 24)
		x = x*lcgA + lcgC
	}
}

// lcgFloats fills dst with deterministic floats in [-1, 1): float i is
// draw i+1 read as a signed fraction.
func lcgFloats(dst []float32, seed uint32) {
	x0, x1, x2, x3 := lcgChains(seed | 1)
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d := dst[i : i+4 : i+4]
		d[0], d[1], d[2], d[3] = lcgFloat(x0), lcgFloat(x1), lcgFloat(x2), lcgFloat(x3)
		x0, x1 = x0*lcgA4+lcgC4, x1*lcgA4+lcgC4
		x2, x3 = x2*lcgA4+lcgC4, x3*lcgA4+lcgC4
	}
	for x := x0; i < len(dst); i++ {
		dst[i] = lcgFloat(x)
		x = x*lcgA + lcgC
	}
}

func lcgFloat(x uint32) float32 { return float32(int32(x))/(1<<31) + 0 }

// partition splits n items into per-worker contiguous [start,end) ranges.
func partition(n, workers, idx int) (start, end int) {
	per := n / workers
	rem := n % workers
	start = idx*per + min(idx, rem)
	size := per
	if idx < rem {
		size++
	}
	return start, start + size
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
