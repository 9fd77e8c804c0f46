package workloads

import (
	"fmt"

	"github.com/celltrace/pdt/internal/cell"
)

// Histogram computes a 256-bin byte histogram of a large input buffer.
// SPEs stream 16 KiB chunks of their partition into local store and count
// locally; partial results are merged either with atomic adds on a shared
// table (Reduce="atomic") or by DMA-ing partials back for a PPE-side
// reduction (Reduce="ppe") — a gather/reduce ablation.
type Histogram struct {
	Size   int    // input bytes
	Reduce string // "atomic" or "ppe"
	Seed   int

	inEA      uint64
	globalEA  uint64 // 256 x 8-byte bins (atomic mode + final result)
	partialEA uint64 // per-SPE partial tables (ppe mode)
}

// NewHistogram returns the default 4 MiB atomic-reduce configuration.
func NewHistogram() *Histogram { return &Histogram{Size: 4 * cell.MiB, Reduce: "atomic", Seed: 9} }

func (w *Histogram) Configure(params map[string]string) error {
	if err := configure(params, w.params()); err != nil {
		return err
	}
	if w.Size <= 0 || w.Size%16 != 0 {
		return fmt.Errorf("histogram: size %d must be a positive multiple of 16", w.Size)
	}
	if w.Reduce != "atomic" && w.Reduce != "ppe" {
		return fmt.Errorf("histogram: reduce must be atomic or ppe, got %q", w.Reduce)
	}
	return nil
}

func (w *Histogram) params() []param {
	return []param{{"size", &w.Size}, {"reduce", &w.Reduce}, {"seed", &w.Seed}}
}

func (w *Histogram) Params() map[string]string { return paramMap(w.params()) }

const histBins = 256

func (w *Histogram) Prepare(m *cell.Machine) error {
	w.inEA = m.Alloc(w.Size, 128)
	lcg(m.Mem()[w.inEA:w.inEA+uint64(w.Size)], uint32(w.Seed))
	w.globalEA = m.Alloc(histBins*8, 128)
	for b := 0; b < histBins; b++ {
		m.WriteWord64(w.globalEA+uint64(8*b), 0)
	}
	nspe := m.NumSPEs()
	w.partialEA = m.Alloc(nspe*histBins*8, 128)

	m.RunMain(func(h cell.Host) {
		var hs []*cell.SPEHandle
		for s := 0; s < nspe; s++ {
			spe := s
			hs = append(hs, h.Run(spe, "histogram", func(spu cell.SPU) uint32 {
				w.speMain(spu, spe, nspe)
				return 0
			}))
		}
		for _, hd := range hs {
			if code := h.Wait(hd); code != 0 {
				panic(fmt.Sprintf("histogram: SPE exited with %d", code))
			}
		}
		if w.Reduce == "ppe" {
			// Merge the per-SPE partial tables on the PPE.
			for spe := 0; spe < nspe; spe++ {
				base := w.partialEA + uint64(spe*histBins*8)
				for b := 0; b < histBins; b++ {
					cur := h.Machine().ReadWord64(w.globalEA + uint64(8*b))
					h.Machine().WriteWord64(w.globalEA+uint64(8*b),
						cur+h.Machine().ReadWord64(base+uint64(8*b)))
				}
				h.Compute(uint64(histBins) * 4)
			}
		}
	})
	return nil
}

func (w *Histogram) speMain(spu cell.SPU, spe, nspe int) {
	// Partition on 16-byte boundaries.
	units := w.Size / 16
	u0, u1 := partition(units, nspe, spe)
	start, end := u0*16, u1*16
	ls := spu.LS()
	var local [histBins]uint64
	for off := start; off < end; off += cell.MaxDMASize {
		sz := min(cell.MaxDMASize, end-off)
		spu.Get(0, w.inEA+uint64(off), sz, 0)
		spu.WaitTagAll(1)
		for _, b := range ls[:sz] {
			local[b]++
		}
		spu.Compute(uint64(sz)) // ~1 cycle/byte counting
	}
	switch w.Reduce {
	case "atomic":
		for b := 0; b < histBins; b++ {
			if local[b] != 0 {
				spu.AtomicAdd(w.globalEA+uint64(8*b), local[b])
			}
		}
	case "ppe":
		// Serialize the local table into LS and PUT it to the partial
		// region (big-endian to match the atomic word layout).
		for b := 0; b < histBins; b++ {
			v := local[b]
			for i := 0; i < 8; i++ {
				ls[8*b+i] = byte(v >> uint(56-8*i))
			}
		}
		spu.Put(0, w.partialEA+uint64(spe*histBins*8), histBins*8, 1)
		spu.WaitTagAll(1 << 1)
	}
}

func (w *Histogram) Verify(m *cell.Machine) error {
	var want [histBins]uint64
	for _, b := range m.Mem()[w.inEA : w.inEA+uint64(w.Size)] {
		want[b]++
	}
	for b := 0; b < histBins; b++ {
		if got := m.ReadWord64(w.globalEA + uint64(8*b)); got != want[b] {
			return fmt.Errorf("histogram: bin %d = %d, want %d", b, got, want[b])
		}
	}
	return nil
}
