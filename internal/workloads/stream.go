package workloads

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/celltrace/pdt/internal/cell"
)

// Stream is the STREAM-triad bandwidth workload: a[i] = b[i] + q*c[i]
// over float32 arrays, each SPE streaming its partition through local
// store in 16 KiB chunks (single- or double-buffered). It is almost pure
// memory traffic (half a cycle of compute per 12 bytes moved), so it
// saturates the modeled memory interface and is the probe workload for
// the machine-bandwidth ablation experiment.
type Stream struct {
	Elements int // float32 elements per array
	Buffers  int // 1 or 2
	Seed     int

	aEA, bEA, cEA uint64
}

// streamQ is the triad scale factor. The triad rounds q*c before the
// add, so no target fuses the two and Verify compares exactly.
const streamQ float32 = 3.0

// streamChunk is the per-DMA element count (16 KiB of float32).
const streamChunk = 4096

// NewStream returns the default 1M-element double-buffered triad.
func NewStream() *Stream { return &Stream{Elements: 1 << 20, Buffers: 2, Seed: 13} }

func (w *Stream) Configure(params map[string]string) error {
	if err := configure(params, w.params()); err != nil {
		return err
	}
	if w.Elements <= 0 || w.Elements%streamChunk != 0 {
		return fmt.Errorf("stream: elements=%d must be a positive multiple of %d", w.Elements, streamChunk)
	}
	if w.Buffers != 1 && w.Buffers != 2 {
		return fmt.Errorf("stream: buffers must be 1 or 2")
	}
	return nil
}

func (w *Stream) params() []param {
	return []param{{"elements", &w.Elements}, {"buffers", &w.Buffers}, {"seed", &w.Seed}}
}

func (w *Stream) Params() map[string]string { return paramMap(w.params()) }

func (w *Stream) Prepare(m *cell.Machine) error {
	bytes := w.Elements * 4
	w.aEA = m.Alloc(bytes, 128)
	w.bEA = m.Alloc(bytes, 128)
	w.cEA = m.Alloc(bytes, 128)
	vals := make([]float32, w.Elements)
	lcgFloats(vals, uint32(w.Seed))
	for i, f := range vals {
		binary.LittleEndian.PutUint32(m.Mem()[w.bEA+uint64(4*i):], math.Float32bits(f))
	}
	lcgFloats(vals, uint32(w.Seed)+1)
	for i, f := range vals {
		binary.LittleEndian.PutUint32(m.Mem()[w.cEA+uint64(4*i):], math.Float32bits(f))
	}

	m.RunMain(func(h cell.Host) {
		nspe := h.NumSPEs()
		var hs []*cell.SPEHandle
		for s := 0; s < nspe; s++ {
			spe := s
			hs = append(hs, h.Run(spe, "stream", func(spu cell.SPU) uint32 {
				w.speMain(spu, spe, nspe)
				return 0
			}))
		}
		for _, hd := range hs {
			if code := h.Wait(hd); code != 0 {
				panic(fmt.Sprintf("stream: SPE exited with %d", code))
			}
		}
	})
	return nil
}

// LS layout per buffer set: |b|c|a| chunks; double buffering doubles it.
func (w *Stream) speMain(spu cell.SPU, spe, nspe int) {
	const cb = streamChunk * 4 // chunk bytes
	nChunks := w.Elements / streamChunk
	c0, c1 := partition(nChunks, nspe, spe)
	ls := spu.LS()

	bOff := func(buf int) int { return buf * 3 * cb }
	cOff := func(buf int) int { return buf*3*cb + cb }
	aOff := func(buf int) int { return buf*3*cb + 2*cb }
	fetch := func(buf, chunk int) {
		ea := uint64(chunk * cb)
		spu.Get(bOff(buf), w.bEA+ea, cb, buf)
		spu.Get(cOff(buf), w.cEA+ea, cb, buf)
	}

	if c0 >= c1 {
		return
	}
	cur := 0
	fetch(cur, c0)
	for chunk := c0; chunk < c1; chunk++ {
		spu.WaitTagAll(1 << uint(cur))
		if w.Buffers == 2 && chunk+1 < c1 {
			fetch(1-cur, chunk+1)
		}
		for i := 0; i < streamChunk; i++ {
			b := math.Float32frombits(binary.LittleEndian.Uint32(ls[bOff(cur)+4*i:]))
			c := math.Float32frombits(binary.LittleEndian.Uint32(ls[cOff(cur)+4*i:]))
			binary.LittleEndian.PutUint32(ls[aOff(cur)+4*i:], math.Float32bits(b+float32(streamQ*c)))
		}
		spu.Compute(flopCycles(2 * streamChunk))
		spu.Put(aOff(cur), w.aEA+uint64(chunk*cb), cb, 2+cur)
		spu.WaitTagAll(1 << uint(2+cur))
		if w.Buffers == 1 && chunk+1 < c1 {
			fetch(cur, chunk+1)
		} else if w.Buffers == 2 {
			cur = 1 - cur
		}
	}
}

func (w *Stream) Verify(m *cell.Machine) error {
	step := w.Elements / 4096
	if step == 0 {
		step = 1
	}
	for i := 0; i < w.Elements; i += step {
		b := math.Float32frombits(binary.LittleEndian.Uint32(m.Mem()[w.bEA+uint64(4*i):]))
		c := math.Float32frombits(binary.LittleEndian.Uint32(m.Mem()[w.cEA+uint64(4*i):]))
		got := math.Float32frombits(binary.LittleEndian.Uint32(m.Mem()[w.aEA+uint64(4*i):]))
		want := b + float32(streamQ*c)
		if got != want {
			return fmt.Errorf("stream: a[%d] = %g, want %g", i, got, want)
		}
	}
	return nil
}
