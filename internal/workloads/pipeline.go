package workloads

import (
	"fmt"

	"github.com/celltrace/pdt/internal/cell"
)

// Pipeline streams blocks through a chain of SPE stages connected by
// LS-to-LS DMA with two-slot inboxes and atomic full/empty flags in main
// storage; the last stage reports each completed block to the PPE through
// its outbound mailbox. Each stage adds (stage+1) to every byte. With
// SlowStage >= 0, that stage's compute is multiplied by SlowFactor, which
// concentrates upstream back-pressure and downstream starvation around it
// — the paper's communication-bottleneck use case.
type Pipeline struct {
	Stages     int // number of SPE stages (0 = all SPEs)
	Blocks     int
	BlockBytes int
	SlowStage  int // -1 = balanced pipeline
	SlowFactor int
	Seed       int

	inEA, outEA uint64
	flagsEA     [][2]uint64 // [stage][slot] full/empty flags (stages 1..S-1)
}

// NewPipeline returns the default 64-block, 4 KiB-block pipeline over all
// SPEs with no slow stage.
func NewPipeline() *Pipeline {
	return &Pipeline{Stages: 0, Blocks: 64, BlockBytes: 4096, SlowStage: -1, SlowFactor: 8, Seed: 5}
}

func (w *Pipeline) Configure(params map[string]string) error {
	if err := configure(params, w.params()); err != nil {
		return err
	}
	if w.BlockBytes <= 0 || w.BlockBytes%16 != 0 || w.BlockBytes > cell.MaxDMASize {
		return fmt.Errorf("pipeline: blockbytes=%d must be a multiple of 16 within the DMA limit", w.BlockBytes)
	}
	if w.Blocks <= 0 {
		return fmt.Errorf("pipeline: blocks must be positive")
	}
	if w.SlowFactor < 1 {
		return fmt.Errorf("pipeline: slowfactor must be >= 1")
	}
	return nil
}

func (w *Pipeline) params() []param {
	return []param{
		{"stages", &w.Stages}, {"blocks", &w.Blocks}, {"blockbytes", &w.BlockBytes},
		{"slowstage", &w.SlowStage}, {"slowfactor", &w.SlowFactor}, {"seed", &w.Seed},
	}
}

func (w *Pipeline) Params() map[string]string { return paramMap(w.params()) }

const pipeSpin = 300 // cycles between flag polls

func (w *Pipeline) Prepare(m *cell.Machine) error {
	stages := w.Stages
	if stages <= 0 || stages > m.NumSPEs() {
		stages = m.NumSPEs()
	}
	w.Stages = stages
	total := w.Blocks * w.BlockBytes
	w.inEA = m.Alloc(total, 128)
	w.outEA = m.Alloc(total, 128)
	lcg(m.Mem()[w.inEA:w.inEA+uint64(total)], uint32(w.Seed))

	w.flagsEA = make([][2]uint64, stages)
	for i := 1; i < stages; i++ {
		for s := 0; s < 2; s++ {
			ea := m.Alloc(8, 8)
			m.WriteWord64(ea, 0)
			w.flagsEA[i][s] = ea
		}
	}

	m.RunMain(func(h cell.Host) {
		var hs []*cell.SPEHandle
		for i := 0; i < stages; i++ {
			stage := i
			hs = append(hs, h.Run(stage, "pipeline", func(spu cell.SPU) uint32 {
				w.stageMain(spu, stage, stages)
				return 0
			}))
		}
		// Collect one mailbox token per block from the last stage.
		for k := 0; k < w.Blocks; k++ {
			if v := h.ReadOutMbox(stages - 1); int(v) != k {
				panic(fmt.Sprintf("pipeline: completion token %d, want %d", v, k))
			}
		}
		for _, hd := range hs {
			if code := h.Wait(hd); code != 0 {
				panic(fmt.Sprintf("pipeline: stage exited with %d", code))
			}
		}
	})
	return nil
}

// LS layout: slot0 | slot1 | outbuf.
func (w *Pipeline) stageMain(spu cell.SPU, stage, stages int) {
	bb := w.BlockBytes
	outOff := 2 * bb
	ls := spu.LS()
	cost := uint64(bb) // ~1 cycle per byte
	if stage == w.SlowStage {
		cost *= uint64(w.SlowFactor)
	}
	const tagIn, tagOut = 0, 1

	for k := 0; k < w.Blocks; k++ {
		slot := k % 2
		inOff := slot * bb
		if stage == 0 {
			// Head: pull from main memory into the slot.
			spu.Get(inOff, w.inEA+uint64(k*bb), bb, tagIn)
			spu.WaitTagAll(1 << tagIn)
		} else {
			// Wait for the producer to fill our slot.
			for spu.AtomicAdd(w.flagsEA[stage][slot], 0) == 0 {
				spu.Compute(pipeSpin)
			}
		}
		// Transform slot -> outbuf.
		in, out := ls[inOff:inOff+bb], ls[outOff:outOff+bb]
		for j, v := range in[:len(out)] {
			out[j] = v + byte(stage+1)
		}
		spu.Compute(cost)
		if stage > 0 {
			// Slot consumed; let the producer refill it.
			if !spu.AtomicCAS(w.flagsEA[stage][slot], 1, 0) {
				panic("pipeline: inbox flag corrupted")
			}
		}
		if stage < stages-1 {
			// Push to the next stage's matching slot once it is free.
			for spu.AtomicAdd(w.flagsEA[stage+1][slot], 0) != 0 {
				spu.Compute(pipeSpin)
			}
			spu.Put(outOff, cell.LSEA(stage+1, uint64(inOff)), bb, tagOut)
			spu.WaitTagAll(1 << tagOut)
			if !spu.AtomicCAS(w.flagsEA[stage+1][slot], 0, 1) {
				panic("pipeline: downstream flag corrupted")
			}
		} else {
			// Tail: write result and report completion to the PPE.
			spu.Put(outOff, w.outEA+uint64(k*bb), bb, tagOut)
			spu.WaitTagAll(1 << tagOut)
			spu.WriteOutMbox(uint32(k))
		}
	}
}

func (w *Pipeline) Verify(m *cell.Machine) error {
	total := w.Blocks * w.BlockBytes
	delta := byte(w.Stages * (w.Stages + 1) / 2)
	in := m.Mem()[w.inEA : w.inEA+uint64(total)]
	out := m.Mem()[w.outEA : w.outEA+uint64(total)]
	for i := 0; i < total; i++ {
		if out[i] != in[i]+delta {
			return fmt.Errorf("pipeline: out[%d] = %d, want %d", i, out[i], in[i]+delta)
		}
	}
	return nil
}
