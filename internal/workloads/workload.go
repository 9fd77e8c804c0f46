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
	"sort"
	"strconv"

	"github.com/celltrace/pdt/internal/cell"
)

// Workload is one configurable, self-verifying benchmark.
type Workload interface {
	// Name is the registry key.
	Name() string
	// Description is a one-line summary for CLI listings.
	Description() string
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

// factories maps workload names to constructors.
var factories = map[string]func() Workload{
	"matmul":    func() Workload { return NewMatmul() },
	"fft":       func() Workload { return NewFFT() },
	"pipeline":  func() Workload { return NewPipeline() },
	"julia":     func() Workload { return NewJulia() },
	"histogram": func() Workload { return NewHistogram() },
	"synthetic": func() Workload { return NewSynthetic() },
	"stream":    func() Workload { return NewStream() },
	"stencil":   func() Workload { return NewStencil() },
	"sort":      func() Workload { return NewSort() },
	"nbody":     func() Workload { return NewNBody() },
	"taskfarm":  func() Workload { return NewTaskFarm() },
}

// New instantiates a registered workload with default parameters.
func New(name string) (Workload, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names lists the registered workloads, sorted.
func Names() []string {
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	sort.Strings(out)
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

// intParam parses params[key] into *dst when present.
func intParam(params map[string]string, key string, dst *int) error {
	s, ok := params[key]
	if !ok {
		return nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("workloads: parameter %s=%q: %v", key, s, err)
	}
	*dst = v
	return nil
}

// stringParam copies params[key] into *dst when present.
func stringParam(params map[string]string, key string, dst *string) {
	if s, ok := params[key]; ok {
		*dst = s
	}
}

// checkKnown rejects unknown parameter keys.
func checkKnown(params map[string]string, known ...string) error {
	for k := range params {
		ok := false
		for _, kn := range known {
			if k == kn {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("workloads: unknown parameter %q (known: %v)", k, known)
		}
	}
	return nil
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
