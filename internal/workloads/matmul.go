package workloads

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/celltrace/pdt/internal/cell"
)

// Matmul is the blocked single-precision matrix multiply C = A*B. The
// matrices are stored tile-major in main memory so that one T*T tile is a
// single contiguous DMA transfer; with the default T=64 a tile is exactly
// the 16 KiB architectural DMA maximum. C tiles are partitioned round-
// robin across SPEs; the Buffers parameter selects single-buffered
// (fetch, wait, compute) or double-buffered (prefetch next k while
// computing) operand streaming — the paper's DMA-stall use case.
type Matmul struct {
	N       int // matrix dimension
	T       int // tile dimension
	Buffers int // 1 = single-buffered, 2 = double-buffered
	Seed    int

	aEA, bEA, cEA uint64
}

// NewMatmul returns a Matmul with the default 256x256 problem, 64x64
// tiles, double buffering.
func NewMatmul() *Matmul { return &Matmul{N: 256, T: 64, Buffers: 2, Seed: 1} }

func (w *Matmul) Configure(params map[string]string) error {
	if err := configure(params, w.params()); err != nil {
		return err
	}
	switch {
	case w.T <= 0 || w.T%4 != 0:
		return fmt.Errorf("matmul: tile size %d must be a positive multiple of 4", w.T)
	case w.N <= 0 || w.N%w.T != 0:
		return fmt.Errorf("matmul: N=%d must be a multiple of the tile size %d", w.N, w.T)
	case w.tileBytes() > cell.MaxDMASize:
		return fmt.Errorf("matmul: tile %d exceeds the %d-byte DMA limit", w.tileBytes(), cell.MaxDMASize)
	case w.Buffers != 1 && w.Buffers != 2:
		return fmt.Errorf("matmul: buffers must be 1 or 2, got %d", w.Buffers)
	}
	return nil
}

func (w *Matmul) params() []param {
	return []param{{"n", &w.N}, {"t", &w.T}, {"buffers", &w.Buffers}, {"seed", &w.Seed}}
}

func (w *Matmul) Params() map[string]string { return paramMap(w.params()) }

func (w *Matmul) tileBytes() int { return w.T * w.T * 4 }
func (w *Matmul) nt() int        { return w.N / w.T }

// tileEA returns the effective address of tile (ti, tj) of the matrix at
// base (tile-major layout).
func (w *Matmul) tileEA(base uint64, ti, tj int) uint64 {
	return base + uint64((ti*w.nt()+tj)*w.tileBytes())
}

func (w *Matmul) Prepare(m *cell.Machine) error {
	bytes := w.N * w.N * 4
	w.aEA = m.Alloc(bytes, 128)
	w.bEA = m.Alloc(bytes, 128)
	w.cEA = m.Alloc(bytes, 128)
	fill := func(ea uint64, seed uint32) {
		fs := make([]float32, w.N*w.N)
		lcgFloats(fs, seed)
		for i, f := range fs {
			binary.LittleEndian.PutUint32(m.Mem()[ea+uint64(4*i):], math.Float32bits(f))
		}
	}
	fill(w.aEA, uint32(w.Seed))
	fill(w.bEA, uint32(w.Seed)+7)

	m.RunMain(func(h cell.Host) {
		nspe := h.NumSPEs()
		var hs []*cell.SPEHandle
		for s := 0; s < nspe; s++ {
			spe := s
			hs = append(hs, h.Run(spe, "matmul", func(spu cell.SPU) uint32 {
				w.speMain(spu, spe, nspe)
				return 0
			}))
		}
		for _, hd := range hs {
			if code := h.Wait(hd); code != 0 {
				panic(fmt.Sprintf("matmul: SPE exited with %d", code))
			}
		}
	})
	return nil
}

// LS layout: |C acc|A0|B0|A1|B1| tiles from offset 0.
func (w *Matmul) speMain(spu cell.SPU, spe, nspe int) {
	tb := w.tileBytes()
	cOff := 0
	aOff := func(buf int) int { return tb + 2*buf*tb }
	bOff := func(buf int) int { return tb + 2*buf*tb + tb }
	nt := w.nt()
	nTiles := nt * nt
	const tagA, tagB, tagC = 0, 1, 2

	// Scratch float views to keep the Go-side math fast.
	af := make([]float32, w.T*w.T)
	bf := make([]float32, w.T*w.T)
	cf := make([]float32, w.T*w.T)
	ls := spu.LS()

	fetch := func(buf, ti, k, tj int) {
		spu.Get(aOff(buf), w.tileEA(w.aEA, ti, k), tb, tagA+2*buf)
		spu.Get(bOff(buf), w.tileEA(w.bEA, k, tj), tb, tagB+2*buf)
	}
	waitBuf := func(buf int) {
		spu.WaitTagAll(1<<uint(tagA+2*buf) | 1<<uint(tagB+2*buf))
	}

	for tile := spe; tile < nTiles; tile += nspe {
		ti, tj := tile/nt, tile%nt
		for i := range cf {
			cf[i] = 0
		}
		cur := 0
		fetch(cur, ti, 0, tj)
		for k := 0; k < nt; k++ {
			waitBuf(cur)
			if w.Buffers == 2 && k+1 < nt {
				fetch(1-cur, ti, k+1, tj)
			}
			// Load operand tiles from LS, multiply-accumulate, charging
			// the modeled flop cycles.
			decodeTile(ls[aOff(cur):], af)
			decodeTile(ls[bOff(cur):], bf)
			tileMulAdd(cf, af, bf, w.T)
			spu.Compute(flopCycles(2 * uint64(w.T) * uint64(w.T) * uint64(w.T)))
			if w.Buffers == 1 && k+1 < nt {
				fetch(cur, ti, k+1, tj)
			} else if w.Buffers == 2 {
				cur = 1 - cur
			}
		}
		encodeTile(cf, ls[cOff:])
		spu.Put(cOff, w.tileEA(w.cEA, ti, tj), tb, tagC+6)
		spu.WaitTagAll(1 << uint(tagC+6))
	}
}

func decodeTile(src []byte, dst []float32) {
	src = src[:4*len(dst)]
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i : 4*i+4]))
	}
}

func encodeTile(src []float32, dst []byte) {
	dst = dst[:4*len(src)]
	for i, f := range src {
		binary.LittleEndian.PutUint32(dst[4*i:4*i+4], math.Float32bits(f))
	}
}

// tileMulAdd computes c += a*b for T*T row-major tiles. Each element of c
// adds its products one at a time in k order, each product rounded to
// float32 on its own, so the result does not depend on whether the target
// fuses a multiply and an add. The k loop takes four steps per pass over
// the c row; a group with a zero a entry takes them one by one, skipping
// the zero, as the single-step loop does.
func tileMulAdd(c, a, b []float32, t int) {
	for i := 0; i < t; i++ {
		arow := a[i*t : i*t+t]
		crow := c[i*t : i*t+t]
		k := 0
		for ; k+4 <= t; k += 4 {
			ag := arow[k : k+4 : k+4]
			a0, a1, a2, a3 := ag[0], ag[1], ag[2], ag[3]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				for kk := k; kk < k+4; kk++ {
					rowMulAdd(crow, arow[kk], b[kk*t:kk*t+t])
				}
				continue
			}
			b0 := b[k*t:][:len(crow)]
			b1 := b[(k+1)*t:][:len(crow)]
			b2 := b[(k+2)*t:][:len(crow)]
			b3 := b[(k+3)*t:][:len(crow)]
			for j, cv := range crow {
				crow[j] = cv + float32(a0*b0[j]) + float32(a1*b1[j]) + float32(a2*b2[j]) + float32(a3*b3[j])
			}
		}
		for ; k < t; k++ {
			rowMulAdd(crow, arow[k], b[k*t:k*t+t])
		}
	}
}

// rowMulAdd adds av*row to crow, doing nothing when av is zero.
func rowMulAdd(crow []float32, av float32, row []float32) {
	if av == 0 {
		return
	}
	row = row[:len(crow)]
	for j, cv := range crow {
		crow[j] = cv + float32(av*row[j])
	}
}

func (w *Matmul) Verify(m *cell.Machine) error {
	n, t, nt := w.N, w.T, w.nt()
	read := func(base uint64, i, j int) float64 {
		ti, tj := i/t, j/t
		off := w.tileEA(base, ti, tj) + uint64(4*((i%t)*t+j%t))
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(m.Mem()[off:])))
	}
	// Check a deterministic sample of entries (full N^3 verification is
	// done by the small-N unit tests).
	step := n / 16
	if step == 0 {
		step = 1
	}
	for i := 0; i < n; i += step {
		for j := 0; j < n; j += step {
			var want float64
			for tk := 0; tk < nt; tk++ {
				for k := tk * t; k < (tk+1)*t; k++ {
					want += read(w.aEA, i, k) * read(w.bEA, k, j)
				}
			}
			got := read(w.cEA, i, j)
			if math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
				return fmt.Errorf("matmul: C[%d][%d] = %g, want %g", i, j, got, want)
			}
		}
	}
	return nil
}
