package workloads

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/celltrace/pdt/internal/cell"
)

// Sort is a two-phase distributed sort in the CellSort mold: SPEs stream
// local-store-sized chunks in, sort them in place, and stream them back;
// the PPE then k-way merges the sorted runs into the output array. The
// first phase is embarrassingly parallel and DMA-bound at the edges; the
// merge is serial on the PPE — the workload whose critical path analysis
// shows the host becoming the bottleneck as SPEs are added.
type Sort struct {
	Elements int // uint32 elements
	Chunk    int // elements per SPE-sorted run
	Seed     int

	inEA, outEA uint64
}

// NewSort returns the default 256Ki-element sort with 4K-element runs.
func NewSort() *Sort { return &Sort{Elements: 1 << 18, Chunk: 4096, Seed: 31} }

func (w *Sort) Configure(params map[string]string) error {
	if err := configure(params, w.params()); err != nil {
		return err
	}
	if w.Chunk <= 0 || w.Chunk%4 != 0 || w.Chunk*4 > cell.MaxDMASize {
		return fmt.Errorf("sort: chunk=%d must be a positive multiple of 4 fitting one DMA", w.Chunk)
	}
	if w.Elements <= 0 || w.Elements%w.Chunk != 0 {
		return fmt.Errorf("sort: elements=%d must be a multiple of chunk=%d", w.Elements, w.Chunk)
	}
	return nil
}

func (w *Sort) params() []param {
	return []param{{"elements", &w.Elements}, {"chunk", &w.Chunk}, {"seed", &w.Seed}}
}

func (w *Sort) Params() map[string]string { return paramMap(w.params()) }

func (w *Sort) Prepare(m *cell.Machine) error {
	w.inEA = m.Alloc(w.Elements*4, 128)
	w.outEA = m.Alloc(w.Elements*4, 128)
	x := uint32(w.Seed) | 1
	for i := 0; i < w.Elements; i++ {
		x = x*1664525 + 1013904223
		binary.LittleEndian.PutUint32(m.Mem()[w.inEA+uint64(4*i):], x)
	}

	m.RunMain(func(h cell.Host) {
		nspe := h.NumSPEs()
		var hs []*cell.SPEHandle
		for s := 0; s < nspe; s++ {
			spe := s
			hs = append(hs, h.Run(spe, "sort", func(spu cell.SPU) uint32 {
				w.speMain(spu, spe, nspe)
				return 0
			}))
		}
		for _, hd := range hs {
			if code := h.Wait(hd); code != 0 {
				panic(fmt.Sprintf("sort: SPE exited with %d", code))
			}
		}
		w.ppeMerge(h)
	})
	return nil
}

// speMain sorts this SPE's chunks in place (in main memory).
func (w *Sort) speMain(spu cell.SPU, spe, nspe int) {
	cb := w.Chunk * 4
	nChunks := w.Elements / w.Chunk
	ls := spu.LS()
	vals := make([]uint32, w.Chunk)
	for c := spe; c < nChunks; c += nspe {
		ea := w.inEA + uint64(c*cb)
		spu.Get(0, ea, cb, 0)
		spu.WaitTagAll(1)
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint32(ls[4*i:])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		// ~2*n*log2(n) comparison/exchange cycles.
		logN := 0
		for 1<<logN < w.Chunk {
			logN++
		}
		spu.Compute(2 * uint64(w.Chunk) * uint64(logN))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(ls[4*i:], v)
		}
		spu.Put(0, ea, cb, 1)
		spu.WaitTagAll(1 << 1)
	}
}

// ppeMerge k-way merges the sorted runs into the output array.
func (w *Sort) ppeMerge(h cell.Host) {
	mem := h.Mem()
	nChunks := w.Elements / w.Chunk
	heads := make([]int, nChunks) // element index consumed per run
	read := func(run int) uint32 {
		idx := run*w.Chunk + heads[run]
		return binary.LittleEndian.Uint32(mem[w.inEA+uint64(4*idx):])
	}
	for out := 0; out < w.Elements; out++ {
		best := -1
		var bestV uint32
		for r := 0; r < nChunks; r++ {
			if heads[r] >= w.Chunk {
				continue
			}
			if v := read(r); best < 0 || v < bestV {
				best, bestV = r, v
			}
		}
		heads[best]++
		binary.LittleEndian.PutUint32(mem[w.outEA+uint64(4*out):], bestV)
	}
	// ~k comparisons per output element on the PPE.
	h.Compute(uint64(w.Elements) * uint64(nChunks) / 4)
}

func (w *Sort) Verify(m *cell.Machine) error {
	var prev uint32
	counts := map[uint32]int{}
	for i := 0; i < w.Elements; i++ {
		v := binary.LittleEndian.Uint32(m.Mem()[w.outEA+uint64(4*i):])
		if i > 0 && v < prev {
			return fmt.Errorf("sort: out[%d]=%d < out[%d]=%d", i, v, i-1, prev)
		}
		prev = v
		counts[v]++
	}
	// Permutation check against a regenerated input stream.
	x := uint32(w.Seed) | 1
	for i := 0; i < w.Elements; i++ {
		x = x*1664525 + 1013904223
		counts[x]--
	}
	for v, c := range counts {
		if c != 0 {
			return fmt.Errorf("sort: value %d count off by %d (not a permutation)", v, c)
		}
	}
	return nil
}
