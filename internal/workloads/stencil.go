package workloads

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/cellsync"
)

// Stencil is a Jacobi 5-point stencil over a W x H float32 grid with
// row-block decomposition: each SPE keeps its block resident in local
// store and exchanges halo rows with its neighbours every iteration by
// LS-to-LS DMA, notifying them with a same-tag mfc_sndsig that the
// in-order MFC turns into a fenced signal (data is guaranteed to precede
// the notification). Iterations are separated by an atomic barrier. This
// is the canonical Cell nearest-neighbour pattern and the workload that
// exercises SPE-to-SPE communication end to end.
type Stencil struct {
	W, H  int
	Iters int
	Seed  int

	gridEA uint64
	bar    *cellsync.Barrier
	ref    []float32
}

// NewStencil returns the default 256x128 grid, 8 iterations.
func NewStencil() *Stencil { return &Stencil{W: 256, H: 128, Iters: 8, Seed: 21} }

func (w *Stencil) Configure(params map[string]string) error {
	if err := configure(params, w.params()); err != nil {
		return err
	}
	if w.W < 16 || w.W%4 != 0 || w.W*4 > cell.MaxDMASize {
		return fmt.Errorf("stencil: width %d must be >=16, a multiple of 4, and one row must fit a DMA", w.W)
	}
	if w.H < 4 {
		return fmt.Errorf("stencil: height %d too small", w.H)
	}
	if w.Iters <= 0 {
		return fmt.Errorf("stencil: iters must be positive")
	}
	return nil
}

func (w *Stencil) params() []param {
	return []param{{"w", &w.W}, {"h", &w.H}, {"iters", &w.Iters}, {"seed", &w.Seed}}
}

func (w *Stencil) Params() map[string]string { return paramMap(w.params()) }

func (w *Stencil) rowBytes() int { return w.W * 4 }

// stencilRow computes one output row from the three input rows (fixed
// zero boundary on the left/right edges). Shared with verification.
func stencilRow(out, up, mid, down []float32) {
	n := len(out)
	out[0] = 0
	out[n-1] = 0
	for x := 1; x < n-1; x++ {
		out[x] = 0.2 * (mid[x] + mid[x-1] + mid[x+1] + up[x] + down[x])
	}
}

func (w *Stencil) Prepare(m *cell.Machine) error {
	w.gridEA = m.Alloc(w.W*w.H*4, 128)
	init := make([]float32, w.W*w.H)
	lcgFloats(init, uint32(w.Seed))
	for i, f := range init {
		binary.LittleEndian.PutUint32(m.Mem()[w.gridEA+uint64(4*i):], math.Float32bits(f))
	}
	// Reference: identical float32 arithmetic on the host.
	w.ref = w.reference(init)

	nspe := m.NumSPEs()
	w.bar = cellsync.NewBarrier(m, 2, nspe)
	m.RunMain(func(h cell.Host) {
		var hs []*cell.SPEHandle
		for s := 0; s < nspe; s++ {
			spe := s
			hs = append(hs, h.Run(spe, "stencil", func(spu cell.SPU) uint32 {
				return w.speMain(spu, spe, nspe)
			}))
		}
		for _, hd := range hs {
			if code := h.Wait(hd); code != 0 {
				panic(fmt.Sprintf("stencil: SPE exited with %d", code))
			}
		}
	})
	return nil
}

// reference runs the same iteration count on the host (plain float32).
func (w *Stencil) reference(grid []float32) []float32 {
	cur := append([]float32(nil), grid...)
	next := make([]float32, len(grid))
	zero := make([]float32, w.W)
	for it := 0; it < w.Iters; it++ {
		for y := 0; y < w.H; y++ {
			up, down := zero, zero
			if y > 0 {
				up = cur[(y-1)*w.W : y*w.W]
			}
			if y < w.H-1 {
				down = cur[(y+1)*w.W : (y+2)*w.W]
			}
			stencilRow(next[y*w.W:(y+1)*w.W], up, cur[y*w.W:(y+1)*w.W], down)
		}
		cur, next = next, cur
	}
	return cur
}

// Local-store layout (offsets in rows of rowBytes):
//
//	row 0:            halo from the upper neighbour
//	rows 1..n:        the block (n rows)
//	row n+1:          halo from the lower neighbour
//	rows n+2..2n+1:   the "next" block (Jacobi writes here, then swap)
func (w *Stencil) speMain(spu cell.SPU, spe, nspe int) uint32 {
	rb := w.rowBytes()
	r0, r1 := partition(w.H, nspe, spe)
	n := r1 - r0
	if n == 0 {
		// No rows: still participate in barriers so neighbours advance.
		for it := 0; it < w.Iters; it++ {
			w.bar.Wait(spu)
		}
		return 0
	}
	haloUpOff := 0
	blockOff := rb
	haloDownOff := (n + 1) * rb
	nextOff := (n + 2) * rb
	if nextOff+n*rb > 200*cell.KiB {
		return 1 // block does not fit the local-store budget
	}
	ls := spu.LS()

	// Load the block.
	for r := 0; r < n; r++ {
		spu.Get(blockOff+r*rb, w.gridEA+uint64((r0+r)*rb), rb, 0)
	}
	spu.WaitTagAll(1)

	zero := make([]float32, w.W)
	up := make([]float32, w.W)
	mid := make([]float32, w.W)
	down := make([]float32, w.W)
	out := make([]float32, w.W)

	const sigUpper, sigLower = 1 << 0, 1 << 1 // arrival bits in signal reg 1
	for it := 0; it < w.Iters; it++ {
		// All SPEs finished computing the previous iteration; halo
		// slots are reusable.
		w.bar.Wait(spu)
		want := uint32(0)
		// Send boundary rows to the neighbours' halo slots; the sndsig
		// on the same tag group acts as a fenced notification.
		if spe > 0 && r0 > 0 {
			spu.Put(blockOff, cell.LSEA(spe-1, uint64((partitionN(w.H, nspe, spe-1)+1)*rb)), rb, 2)
			spu.Sndsig(spe-1, 1, sigLower, 2)
		}
		if spe < nspe-1 && r1 < w.H {
			spu.Put(blockOff+(n-1)*rb, cell.LSEA(spe+1, 0), rb, 3)
			spu.Sndsig(spe+1, 1, sigUpper, 3)
		}
		if spe > 0 && r0 > 0 {
			want |= sigUpper
		}
		if spe < nspe-1 && r1 < w.H {
			want |= sigLower
		}
		// Collect neighbour arrivals (OR-mode register accumulates).
		var got uint32
		for got&want != want {
			got |= spu.ReadSignal1()
		}
		// Compute the next block.
		for r := 0; r < n; r++ {
			switch {
			case r0+r == 0:
				copy(up, zero)
			case r == 0:
				decodeTile(ls[haloUpOff:haloUpOff+rb], up)
			default:
				decodeTile(ls[blockOff+(r-1)*rb:blockOff+r*rb], up)
			}
			decodeTile(ls[blockOff+r*rb:blockOff+(r+1)*rb], mid)
			switch {
			case r0+r == w.H-1:
				copy(down, zero)
			case r == n-1:
				decodeTile(ls[haloDownOff:haloDownOff+rb], down)
			default:
				decodeTile(ls[blockOff+(r+1)*rb:blockOff+(r+2)*rb], down)
			}
			stencilRow(out, up, mid, down)
			encodeTile(out, ls[nextOff+r*rb:nextOff+(r+1)*rb])
		}
		spu.Compute(flopCycles(5 * uint64(n) * uint64(w.W)))
		// Fence the outgoing halo transfers before mutating the block
		// they read from (they are usually long complete, but a small
		// block computes faster than a row DMA drains).
		spu.WaitTagAll(1<<2 | 1<<3)
		// Swap blocks (copy back: the halo slots sit around the primary
		// block, so the primary location is fixed).
		copy(ls[blockOff:blockOff+n*rb], ls[nextOff:nextOff+n*rb])
		spu.Compute(uint64(n*rb) / 16) // LS-to-LS copy cost
	}

	// Write the block back.
	for r := 0; r < n; r++ {
		spu.Put(blockOff+r*rb, w.gridEA+uint64((r0+r)*rb), rb, 0)
	}
	spu.WaitTagAll(1)
	return 0
}

// partitionN returns the row count of worker idx (helper for halo slot
// addressing on the neighbour).
func partitionN(total, workers, idx int) int {
	s, e := partition(total, workers, idx)
	return e - s
}

func (w *Stencil) Verify(m *cell.Machine) error {
	for i := 0; i < w.W*w.H; i++ {
		got := math.Float32frombits(binary.LittleEndian.Uint32(m.Mem()[w.gridEA+uint64(4*i):]))
		if got != w.ref[i] {
			return fmt.Errorf("stencil: cell %d = %g, want %g", i, got, w.ref[i])
		}
	}
	return nil
}
