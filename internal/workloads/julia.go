package workloads

import (
	"fmt"

	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/cellsync"
)

// Julia renders a Julia-set escape-time image, one byte of iteration count
// per pixel, distributing rows either statically (contiguous row blocks
// per SPE) or dynamically (an atomic work queue). Rows crossing the
// fractal interior iterate far longer than rows in the escape region, so
// static partitioning is badly imbalanced — the paper's load-balancing
// use case, made visible by per-SPE busy times in the trace.
type Julia struct {
	W, H    int
	MaxIter int
	Mode    string // "static" or "dynamic"

	outEA uint64
	wq    *cellsync.WorkQueue
}

// NewJulia returns the default 512x512 static renderer.
func NewJulia() *Julia { return &Julia{W: 512, H: 512, MaxIter: 200, Mode: "static"} }

func (w *Julia) Configure(params map[string]string) error {
	if err := configure(params, w.params()); err != nil {
		return err
	}
	if w.W <= 0 || w.W%16 != 0 {
		return fmt.Errorf("julia: width %d must be a positive multiple of 16", w.W)
	}
	if w.W > cell.MaxDMASize {
		return fmt.Errorf("julia: width %d exceeds one-row DMA limit", w.W)
	}
	if w.H <= 0 || w.MaxIter <= 0 || w.MaxIter > 255 {
		return fmt.Errorf("julia: h and maxiter must be positive (maxiter <= 255)")
	}
	if w.Mode != "static" && w.Mode != "dynamic" {
		return fmt.Errorf("julia: mode must be static or dynamic, got %q", w.Mode)
	}
	return nil
}

func (w *Julia) params() []param {
	return []param{{"w", &w.W}, {"h", &w.H}, {"maxiter", &w.MaxIter}, {"mode", &w.Mode}}
}

func (w *Julia) Params() map[string]string { return paramMap(w.params()) }

// Julia-set constant (a classic highly-structured parameter).
const juliaCr, juliaCi = -0.8, 0.156

// juliaRow renders row y into dst and returns the total iteration count
// (the row's true compute weight). Identical code runs in verification.
// Each product is rounded on its own, so no target fuses it into the add
// that follows: a pixel's escape count, and with it the trace, is the
// same on every GOARCH.
func juliaRow(dst []byte, y, wpx, hpx, maxIter int) uint64 {
	var total uint64
	ci0 := -1.2 + 2.4*float64(y)/float64(hpx)
	for x := 0; x < wpx; x++ {
		zr := -1.6 + 3.2*float64(x)/float64(wpx)
		zi := ci0
		it := 0
		for ; it < maxIter; it++ {
			zr2, zi2 := float64(zr*zr), float64(zi*zi)
			if zr2+zi2 > 4 {
				break
			}
			zr, zi = zr2-zi2+juliaCr, float64(2*zr*zi)+juliaCi
		}
		dst[x] = byte(it)
		total += uint64(it)
	}
	return total
}

func (w *Julia) Prepare(m *cell.Machine) error {
	w.outEA = m.Alloc(w.W*w.H, 128)
	if w.Mode == "dynamic" {
		w.wq = cellsync.NewWorkQueue(m, 1, w.H)
	}
	m.RunMain(func(h cell.Host) {
		nspe := h.NumSPEs()
		var hs []*cell.SPEHandle
		for s := 0; s < nspe; s++ {
			spe := s
			hs = append(hs, h.Run(spe, "julia-"+w.Mode, func(spu cell.SPU) uint32 {
				w.speMain(spu, spe, nspe)
				return 0
			}))
		}
		for _, hd := range hs {
			if code := h.Wait(hd); code != 0 {
				panic(fmt.Sprintf("julia: SPE exited with %d", code))
			}
		}
	})
	return nil
}

func (w *Julia) speMain(spu cell.SPU, spe, nspe int) {
	ls := spu.LS()
	render := func(y int) {
		iters := juliaRow(ls[:w.W], y, w.W, w.H, w.MaxIter)
		// ~10 flops per iteration plus per-pixel setup.
		spu.Compute(flopCycles(iters*10 + uint64(w.W)*4))
		spu.Put(0, w.outEA+uint64(y*w.W), w.W, 0)
		spu.WaitTagAll(1)
	}
	if w.Mode == "static" {
		start, end := partition(w.H, nspe, spe)
		for y := start; y < end; y++ {
			render(y)
		}
		return
	}
	for {
		item, ok := w.wq.Next(spu)
		if !ok {
			return
		}
		render(int(item))
	}
}

func (w *Julia) Verify(m *cell.Machine) error {
	row := make([]byte, w.W)
	step := w.H / 37
	if step == 0 {
		step = 1
	}
	for y := 0; y < w.H; y += step {
		juliaRow(row, y, w.W, w.H, w.MaxIter)
		got := m.Mem()[w.outEA+uint64(y*w.W) : w.outEA+uint64((y+1)*w.W)]
		for x := range row {
			if got[x] != row[x] {
				return fmt.Errorf("julia: pixel (%d,%d) = %d, want %d", x, y, got[x], row[x])
			}
		}
	}
	return nil
}
