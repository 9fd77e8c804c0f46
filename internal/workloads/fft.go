package workloads

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"

	"github.com/celltrace/pdt/internal/cell"
)

// FFT is the batched 1-D complex FFT workload (the shape of the SDK's
// FFT16M sample): Batches transforms of PointsN complex64 values each,
// stored interleaved (re, im float32). Batches are claimed statically
// round-robin by the SPEs; each batch is DMA'd into local store, solved
// in place with an iterative radix-2 transform, and DMA'd back.
type FFT struct {
	PointsN int // points per transform, power of two
	Batches int
	Seed    int

	dataEA uint64
	ref    [][]complex128
}

// NewFFT returns the default 64-batch 1024-point configuration.
func NewFFT() *FFT { return &FFT{PointsN: 1024, Batches: 64, Seed: 3} }

func (w *FFT) Configure(params map[string]string) error {
	if err := configure(params, w.params()); err != nil {
		return err
	}
	if w.PointsN < 4 || w.PointsN&(w.PointsN-1) != 0 {
		return fmt.Errorf("fft: n=%d must be a power of two >= 4", w.PointsN)
	}
	if w.batchBytes() > 64*cell.KiB {
		return fmt.Errorf("fft: batch of %d bytes does not fit local store budget", w.batchBytes())
	}
	if w.Batches <= 0 {
		return fmt.Errorf("fft: batches must be positive")
	}
	return nil
}

func (w *FFT) params() []param {
	return []param{{"n", &w.PointsN}, {"batches", &w.Batches}, {"seed", &w.Seed}}
}

func (w *FFT) Params() map[string]string { return paramMap(w.params()) }

func (w *FFT) batchBytes() int { return w.PointsN * 8 }

func (w *FFT) batchEA(b int) uint64 { return w.dataEA + uint64(b*w.batchBytes()) }

func (w *FFT) Prepare(m *cell.Machine) error {
	w.dataEA = m.Alloc(w.Batches*w.batchBytes(), 128)
	w.ref = make([][]complex128, w.Batches)
	vals := make([]float32, 2*w.PointsN)
	for b := 0; b < w.Batches; b++ {
		lcgFloats(vals, uint32(w.Seed)+uint32(b)*13)
		w.ref[b] = make([]complex128, w.PointsN)
		for i := 0; i < w.PointsN; i++ {
			binary.LittleEndian.PutUint32(m.Mem()[w.batchEA(b)+uint64(8*i):], math.Float32bits(vals[2*i]))
			binary.LittleEndian.PutUint32(m.Mem()[w.batchEA(b)+uint64(8*i+4):], math.Float32bits(vals[2*i+1]))
			w.ref[b][i] = complex(float64(vals[2*i]), float64(vals[2*i+1]))
		}
		// Reference result: direct recursive FFT in float64.
		w.ref[b] = refFFT(w.ref[b])
	}

	m.RunMain(func(h cell.Host) {
		nspe := h.NumSPEs()
		var hs []*cell.SPEHandle
		for s := 0; s < nspe; s++ {
			spe := s
			hs = append(hs, h.Run(spe, "fft", func(spu cell.SPU) uint32 {
				w.speMain(spu, spe, nspe)
				return 0
			}))
		}
		for _, hd := range hs {
			if code := h.Wait(hd); code != 0 {
				panic(fmt.Sprintf("fft: SPE exited with %d", code))
			}
		}
	})
	return nil
}

func (w *FFT) speMain(spu cell.SPU, spe, nspe int) {
	bb := w.batchBytes()
	ls := spu.LS()
	re := make([]float32, w.PointsN)
	im := make([]float32, w.PointsN)
	logN := 0
	for 1<<logN < w.PointsN {
		logN++
	}
	for b := spe; b < w.Batches; b += nspe {
		// A batch can exceed the 16 KiB DMA limit: stream it in chunks.
		for off := 0; off < bb; off += cell.MaxDMASize {
			sz := min(cell.MaxDMASize, bb-off)
			spu.Get(off, w.batchEA(b)+uint64(off), sz, 0)
		}
		spu.WaitTagAll(1)
		for i := 0; i < w.PointsN; i++ {
			re[i] = math.Float32frombits(binary.LittleEndian.Uint32(ls[8*i:]))
			im[i] = math.Float32frombits(binary.LittleEndian.Uint32(ls[8*i+4:]))
		}
		fftInPlace(re, im)
		// ~5*N*log2(N) flops for a radix-2 complex transform.
		spu.Compute(flopCycles(5 * uint64(w.PointsN) * uint64(logN)))
		for i := 0; i < w.PointsN; i++ {
			binary.LittleEndian.PutUint32(ls[8*i:], math.Float32bits(re[i]))
			binary.LittleEndian.PutUint32(ls[8*i+4:], math.Float32bits(im[i]))
		}
		for off := 0; off < bb; off += cell.MaxDMASize {
			sz := min(cell.MaxDMASize, bb-off)
			spu.Put(off, w.batchEA(b)+uint64(off), sz, 1)
		}
		spu.WaitTagAll(1 << 1)
	}
}

// fftInPlace is an iterative radix-2 Cooley-Tukey transform. Each
// product is rounded to float32 on its own, so the result does not depend
// on whether the target fuses a multiply and an add.
func fftInPlace(re, im []float32) {
	n := len(re)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wr := float32(math.Cos(ang))
		wi := float32(math.Sin(ang))
		for start := 0; start < n; start += length {
			cr, ci := float32(1), float32(0)
			for k := 0; k < length/2; k++ {
				i0, i1 := start+k, start+k+length/2
				ur, ui := re[i0], im[i0]
				vr := float32(re[i1]*cr) - float32(im[i1]*ci)
				vi := float32(re[i1]*ci) + float32(im[i1]*cr)
				re[i0], im[i0] = ur+vr, ui+vi
				re[i1], im[i1] = ur-vr, ui-vi
				cr, ci = float32(cr*wr)-float32(ci*wi), float32(cr*wi)+float32(ci*wr)
			}
		}
	}
}

// refFFT is the float64 reference transform (recursive).
func refFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 1 {
		return x
	}
	even := make([]complex128, n/2)
	odd := make([]complex128, n/2)
	for i := 0; i < n/2; i++ {
		even[i], odd[i] = x[2*i], x[2*i+1]
	}
	even, odd = refFFT(even), refFFT(odd)
	out := make([]complex128, n)
	for k := 0; k < n/2; k++ {
		// The complex product written out, each real product rounded.
		e, o := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n))), odd[k]
		t := complex(float64(real(e)*real(o))-float64(imag(e)*imag(o)),
			float64(real(e)*imag(o))+float64(imag(e)*real(o)))
		out[k] = even[k] + t
		out[k+n/2] = even[k] - t
	}
	return out
}

func (w *FFT) Verify(m *cell.Machine) error {
	for b := 0; b < w.Batches; b++ {
		for i := 0; i < w.PointsN; i++ {
			gr := float64(math.Float32frombits(binary.LittleEndian.Uint32(m.Mem()[w.batchEA(b)+uint64(8*i):])))
			gi := float64(math.Float32frombits(binary.LittleEndian.Uint32(m.Mem()[w.batchEA(b)+uint64(8*i+4):])))
			want := w.ref[b][i]
			scale := 1 + cmplx.Abs(want)
			if math.Abs(gr-real(want)) > 1e-2*scale || math.Abs(gi-imag(want)) > 1e-2*scale {
				return fmt.Errorf("fft: batch %d point %d = (%g,%g), want (%g,%g)",
					b, i, gr, gi, real(want), imag(want))
			}
		}
	}
	return nil
}
