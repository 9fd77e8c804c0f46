package workloads

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/cellsync"
)

// NBody computes all-pairs gravitational accelerations with the classic
// Cell ring algorithm: each SPE holds a resident block of particles and a
// travelling block that circulates around the SPE ring by LS-to-LS DMA,
// so after nspe hops every block has met every other block without
// touching main memory in the inner loop. It is the all-to-all
// communication pattern complement to the stencil's nearest-neighbour
// exchange.
type NBody struct {
	N    int // particles, multiple of 4*nspe for DMA alignment
	Seed int

	posEA, accEA uint64
	bar          *cellsync.Barrier
	ref          []float32
}

// NewNBody returns the default 1024-particle configuration.
func NewNBody() *NBody { return &NBody{N: 1024, Seed: 41} }

func (w *NBody) Configure(params map[string]string) error {
	if err := configure(params, w.params()); err != nil {
		return err
	}
	if w.N < 8 || w.N%8 != 0 {
		return fmt.Errorf("nbody: n=%d must be a multiple of 8 and at least 8", w.N)
	}
	return nil
}

func (w *NBody) params() []param {
	return []param{{"n", &w.N}, {"seed", &w.Seed}}
}

func (w *NBody) Params() map[string]string { return paramMap(w.params()) }

// Layout: positions as (x, y, m) triples of float32; accelerations as
// (ax, ay) pairs.
const (
	posStride = 12
	accStride = 8
	softening = 1e-2
)

// accumulate adds the acceleration on particle i (within pos) due to all
// particles in src; shared with the host reference, which it matches
// exactly on every target because each product is rounded on its own.
func accumulate(ax, ay []float32, pos, src []float32, selfBlock bool) {
	nI := len(ax)
	nJ := len(src) / 3
	for i := 0; i < nI; i++ {
		xi, yi := pos[3*i], pos[3*i+1]
		var sx, sy float32
		for j := 0; j < nJ; j++ {
			if selfBlock && i == j {
				continue
			}
			dx := src[3*j] - xi
			dy := src[3*j+1] - yi
			d2 := float32(dx*dx) + float32(dy*dy) + softening
			inv := 1 / (d2 * float32(math.Sqrt(float64(d2))))
			f := src[3*j+2] * inv
			sx += float32(f * dx)
			sy += float32(f * dy)
		}
		ax[i] += sx
		ay[i] += sy
	}
}

func (w *NBody) blockParticles(nspe int) int {
	// Blocks must be equal-size for the ring; round N down per SPE and
	// let Configure sizes guarantee divisibility via padding.
	return w.N / nspe
}

func (w *NBody) Prepare(m *cell.Machine) error {
	nspe := m.NumSPEs()
	if w.N%(4*nspe) != 0 {
		return fmt.Errorf("nbody: n=%d must be a multiple of 4*SPEs=%d", w.N, 4*nspe)
	}
	w.posEA = m.Alloc(w.N*posStride, 128)
	w.accEA = m.Alloc(w.N*accStride, 128)
	pos := make([]float32, 3*w.N)
	lcgFloats(pos, uint32(w.Seed))
	for i := 0; i < w.N; i++ {
		pos[3*i+2] = 0.5 + float32(pos[3*i+2]*pos[3*i+2]) // positive masses
		for c := 0; c < 3; c++ {
			binary.LittleEndian.PutUint32(m.Mem()[w.posEA+uint64(posStride*i+4*c):],
				math.Float32bits(pos[3*i+c]))
		}
	}
	// Reference accelerations with the same float32 block order as the
	// ring schedule so results compare exactly.
	w.ref = w.reference(pos, nspe)

	w.bar = cellsync.NewBarrier(m, 3, nspe)
	m.RunMain(func(h cell.Host) {
		var hs []*cell.SPEHandle
		for s := 0; s < nspe; s++ {
			spe := s
			hs = append(hs, h.Run(spe, "nbody", func(spu cell.SPU) uint32 {
				return w.speMain(spu, spe, nspe)
			}))
		}
		for _, hd := range hs {
			if code := h.Wait(hd); code != 0 {
				panic(fmt.Sprintf("nbody: SPE exited with %d", code))
			}
		}
	})
	return nil
}

// reference mirrors the SPE ring schedule: each block accumulates against
// the blocks in ring order starting with itself.
func (w *NBody) reference(pos []float32, nspe int) []float32 {
	bp := w.blockParticles(nspe)
	acc := make([]float32, 2*w.N)
	for spe := 0; spe < nspe; spe++ {
		myBase := spe * bp
		my := pos[3*myBase : 3*(myBase+bp)]
		ax := make([]float32, bp)
		ay := make([]float32, bp)
		for hop := 0; hop < nspe; hop++ {
			// Blocks circulate forward, so each SPE sees its ring
			// predecessors' blocks in decreasing order.
			srcSpe := (spe - hop + nspe) % nspe
			src := pos[3*srcSpe*bp : 3*(srcSpe*bp+bp)]
			accumulate(ax, ay, my, src, hop == 0)
		}
		for i := 0; i < bp; i++ {
			acc[2*(myBase+i)] = ax[i]
			acc[2*(myBase+i)+1] = ay[i]
		}
	}
	return acc
}

// LS layout: resident block | travelling block | incoming slot | acc out.
func (w *NBody) speMain(spu cell.SPU, spe, nspe int) uint32 {
	bp := w.blockParticles(nspe)
	blockBytes := bp * posStride
	resOff := 0
	travOff := blockBytes
	inOff := 2 * blockBytes
	accOff := 3 * blockBytes
	if accOff+bp*accStride > 200*cell.KiB {
		return 1
	}
	ls := spu.LS()

	// Load the resident block; the travelling block starts as a copy.
	spu.Get(resOff, w.posEA+uint64(spe*blockBytes), blockBytes, 0)
	spu.WaitTagAll(1)
	copy(ls[travOff:travOff+blockBytes], ls[resOff:resOff+blockBytes])

	my := make([]float32, 3*bp)
	src := make([]float32, 3*bp)
	decodeTile(ls[resOff:resOff+blockBytes], my)
	ax := make([]float32, bp)
	ay := make([]float32, bp)

	next := (spe + 1) % nspe
	const sigArrived = 1 << 4
	for hop := 0; hop < nspe; hop++ {
		decodeTile(ls[travOff:travOff+blockBytes], src)
		accumulate(ax, ay, my, src, hop == 0)
		// ~20 flops per pair.
		spu.Compute(flopCycles(20 * uint64(bp) * uint64(bp)))
		if hop == nspe-1 {
			break
		}
		// Barrier: everyone's inbox slot is free (consumed last hop).
		w.bar.Wait(spu)
		// Pass the travelling block one hop around the ring; the
		// same-tag sndsig lands after the data (in-order MFC).
		spu.Put(travOff, cell.LSEA(next, uint64(inOff)), blockBytes, 5)
		spu.Sndsig(next, 2, sigArrived, 5)
		for spu.ReadSignal2()&sigArrived == 0 {
		}
		// Fence the outgoing pass before overwriting its source buffer.
		spu.WaitTagAll(1 << 5)
		copy(ls[travOff:travOff+blockBytes], ls[inOff:inOff+blockBytes])
		spu.Compute(uint64(blockBytes) / 16)
	}

	for i := 0; i < bp; i++ {
		binary.LittleEndian.PutUint32(ls[accOff+8*i:], math.Float32bits(ax[i]))
		binary.LittleEndian.PutUint32(ls[accOff+8*i+4:], math.Float32bits(ay[i]))
	}
	spu.Put(accOff, w.accEA+uint64(spe*bp*accStride), bp*accStride, 0)
	spu.WaitTagAll(1)
	return 0
}

func (w *NBody) Verify(m *cell.Machine) error {
	for i := 0; i < w.N; i++ {
		gx := math.Float32frombits(binary.LittleEndian.Uint32(m.Mem()[w.accEA+uint64(accStride*i):]))
		gy := math.Float32frombits(binary.LittleEndian.Uint32(m.Mem()[w.accEA+uint64(accStride*i+4):]))
		wx, wy := w.ref[2*i], w.ref[2*i+1]
		if gx != wx || gy != wy {
			return fmt.Errorf("nbody: particle %d acc = (%g,%g), want (%g,%g)", i, gx, gy, wx, wy)
		}
	}
	return nil
}
