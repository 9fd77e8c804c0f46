package workloads

import (
	"fmt"

	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/cellsync"
)

// TaskFarm is the self-scheduling task-farm pattern over a main-storage
// message queue: the PPE publishes task descriptors (block index +
// iteration weight) into an MPMC queue, SPE workers claim tasks, fetch the
// block, hash it for the prescribed number of rounds, and push (task,
// digest) results into a second queue the PPE drains. Unlike the Julia
// work queue (a bare atomic counter), the farm moves real descriptors
// both ways with no PPE-per-task mailbox traffic — the pattern the sync
// substrate exists for.
type TaskFarm struct {
	Tasks      int
	BlockBytes int
	Seed       int

	inEA     uint64
	tasks    *cellsync.MsgQueue
	results  *cellsync.MsgQueue
	rounds   []uint32 // per-task hash rounds (skewed weights)
	digests  map[uint32]uint32
	expected map[uint32]uint32
}

// NewTaskFarm returns the default 64-task, 4 KiB-block farm.
func NewTaskFarm() *TaskFarm { return &TaskFarm{Tasks: 64, BlockBytes: 4096, Seed: 51} }

func (w *TaskFarm) Configure(params map[string]string) error {
	if err := configure(params, w.params()); err != nil {
		return err
	}
	if w.Tasks <= 0 || w.Tasks >= 1<<16 {
		return fmt.Errorf("taskfarm: tasks=%d out of range", w.Tasks)
	}
	if w.BlockBytes <= 0 || w.BlockBytes%16 != 0 || w.BlockBytes > cell.MaxDMASize {
		return fmt.Errorf("taskfarm: blockbytes=%d must be a multiple of 16 within the DMA limit", w.BlockBytes)
	}
	return nil
}

func (w *TaskFarm) params() []param {
	return []param{{"tasks", &w.Tasks}, {"blockbytes", &w.BlockBytes}, {"seed", &w.Seed}}
}

func (w *TaskFarm) Params() map[string]string { return paramMap(w.params()) }

// FNV-1a parameters.
const (
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

// fnvRounds hashes block for the given number of rounds. It is the SPE
// worker's own computation, one chain, as the simulated program runs it.
func fnvRounds(block []byte, rounds uint32) uint32 {
	h := uint32(fnvOffset)
	for r := uint32(0); r < rounds; r++ {
		for _, b := range block {
			h = (h ^ uint32(b)) * fnvPrime
		}
	}
	return h
}

// fnvRounds4 is fnvRounds over four blocks of b0's length at once: four
// independent chains in one loop, for the host-side expected digests.
func fnvRounds4(b0, b1, b2, b3 []byte, rounds uint32) (h0, h1, h2, h3 uint32) {
	h0, h1, h2, h3 = fnvOffset, fnvOffset, fnvOffset, fnvOffset
	b1, b2, b3 = b1[:len(b0)], b2[:len(b0)], b3[:len(b0)]
	for r := uint32(0); r < rounds; r++ {
		for i, c := range b0 {
			h0 = (h0 ^ uint32(c)) * fnvPrime
			h1 = (h1 ^ uint32(b1[i])) * fnvPrime
			h2 = (h2 ^ uint32(b2[i])) * fnvPrime
			h3 = (h3 ^ uint32(b3[i])) * fnvPrime
		}
	}
	return
}

// expectedDigests hashes task t's block of in for rounds[t] rounds. Tasks
// of equal weight are hashed four at a time, a remainder one at a time.
func expectedDigests(in []byte, blockBytes int, rounds []uint32) map[uint32]uint32 {
	block := func(t int) []byte { return in[t*blockBytes : (t+1)*blockBytes] }
	var byRounds [maxTaskRounds + 1][]int
	for t, r := range rounds {
		byRounds[r] = append(byRounds[r], t)
	}
	out := make(map[uint32]uint32, len(rounds))
	for r, ts := range byRounds {
		for ; len(ts) >= 4; ts = ts[4:] {
			h0, h1, h2, h3 := fnvRounds4(block(ts[0]), block(ts[1]), block(ts[2]), block(ts[3]), uint32(r))
			out[uint32(ts[0])], out[uint32(ts[1])] = h0, h1
			out[uint32(ts[2])], out[uint32(ts[3])] = h2, h3
		}
		for _, t := range ts {
			out[uint32(t)] = fnvRounds(block(t), uint32(r))
		}
	}
	return out
}

// Task and result encoding in queue words.
func packTask(id uint16, rounds uint32) uint64 { return uint64(id)<<32 | uint64(rounds) }
func unpackTask(v uint64) (uint16, uint32)     { return uint16(v >> 32), uint32(v) }
func packResult(id uint16, digest uint32) uint64 {
	return uint64(id)<<32 | uint64(digest)
}
func unpackResult(v uint64) (uint16, uint32) { return uint16(v >> 32), uint32(v) }

// maxTaskRounds is the heaviest task weight; weights run 1..maxTaskRounds.
const maxTaskRounds = 8

// poison tells a worker to exit.
const poison = ^uint64(0)

func (w *TaskFarm) Prepare(m *cell.Machine) error {
	w.inEA = m.Alloc(w.Tasks*w.BlockBytes, 128)
	lcg(m.Mem()[w.inEA:w.inEA+uint64(w.Tasks*w.BlockBytes)], uint32(w.Seed))
	w.tasks = cellsync.NewMsgQueue(m, 1, 16)
	w.results = cellsync.NewMsgQueue(m, 2, 16)
	w.digests = map[uint32]uint32{}
	w.rounds = make([]uint32, w.Tasks)
	x := uint32(w.Seed)
	for t := 0; t < w.Tasks; t++ {
		x = x*lcgA + lcgC
		w.rounds[t] = 1 + x%maxTaskRounds // skewed task weights
	}
	w.expected = expectedDigests(m.Mem()[w.inEA:w.inEA+uint64(w.Tasks*w.BlockBytes)], w.BlockBytes, w.rounds)

	nspe := m.NumSPEs()
	m.RunMain(func(h cell.Host) {
		var hs []*cell.SPEHandle
		for s := 0; s < nspe; s++ {
			hs = append(hs, h.Run(s, "taskfarm", func(spu cell.SPU) uint32 {
				return w.workerMain(spu)
			}))
		}
		// Publishing and draining must proceed concurrently: with both
		// queues bounded, a single PPE thread doing one then the other
		// livelocks once workers fill the result queue while the task
		// queue is still full. A second PPE thread feeds the farm.
		h.Spawn("ppe:feeder", func(h2 cell.Host) {
			for t := 0; t < w.Tasks; t++ {
				w.tasks.Put(h2, packTask(uint16(t), w.rounds[t]))
			}
			for s := 0; s < nspe; s++ {
				w.tasks.Put(h2, poison)
			}
		})
		// Drain results on the main thread.
		for r := 0; r < w.Tasks; r++ {
			id, digest := unpackResult(w.results.Get(h))
			w.digests[uint32(id)] = digest
		}
		for _, hd := range hs {
			if code := h.Wait(hd); code != 0 {
				panic(fmt.Sprintf("taskfarm: worker exited with %d", code))
			}
		}
	})
	return nil
}

func (w *TaskFarm) workerMain(spu cell.SPU) uint32 {
	ls := spu.LS()
	for {
		v := w.tasks.Get(spu)
		if v == poison {
			return 0
		}
		id, rounds := unpackTask(v)
		spu.Get(0, w.inEA+uint64(int(id)*w.BlockBytes), w.BlockBytes, 0)
		spu.WaitTagAll(1)
		digest := fnvRounds(ls[:w.BlockBytes], rounds)
		// ~2 cycles per hashed byte per round.
		spu.Compute(2 * uint64(w.BlockBytes) * uint64(rounds))
		w.results.Put(spu, packResult(id, digest))
	}
}

func (w *TaskFarm) Verify(m *cell.Machine) error {
	if len(w.digests) != w.Tasks {
		return fmt.Errorf("taskfarm: %d results, want %d", len(w.digests), w.Tasks)
	}
	for id, want := range w.expected {
		if got, ok := w.digests[id]; !ok || got != want {
			return fmt.Errorf("taskfarm: task %d digest = %#x, want %#x", id, w.digests[id], want)
		}
	}
	return nil
}
