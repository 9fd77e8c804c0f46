// Package integration holds cross-module property tests: randomly
// generated SPE programs are run traced and untraced, and the whole stack
// (simulator, tracer, trace format, analyzer) must agree on invariants.
package integration

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
)

// opKind enumerates the generator's SPU operations.
type opKind int

const (
	opCompute opKind = iota
	opGet
	opPut
	opGetList
	opWait
	opAtomicAdd
	opUserEvent
	opUserLog
	numOps
)

// randProgram is a reproducible random SPE program: a fixed op sequence
// (generated up front so traced and untraced runs execute identically)
// plus the trace-record counts it must produce under full tracing.
type randProgram struct {
	ops []func(spu cell.SPU)
	// expected SPE record count under full tracing (excluding program
	// start/end and flush records).
	expectRecords int
	pendingTags   uint32
}

// genProgram builds a program of n ops from rng, using the scratch and
// atomic EAs provided.
func genProgram(rng *rand.Rand, n int, scratchEA, atomicEA uint64) *randProgram {
	p := &randProgram{}
	for i := 0; i < n; i++ {
		switch opKind(rng.Intn(int(numOps))) {
		case opCompute:
			c := uint64(rng.Intn(5000) + 1)
			p.ops = append(p.ops, func(spu cell.SPU) { spu.Compute(c) })
		case opGet:
			size := []int{16, 128, 1024, 4096}[rng.Intn(4)]
			tag := rng.Intn(8)
			off := rng.Intn(4) * 8192
			p.ops = append(p.ops, func(spu cell.SPU) {
				spu.Get(off, scratchEA+uint64(off), size, tag)
			})
			p.pendingTags |= 1 << uint(tag)
			p.expectRecords++
		case opPut:
			size := []int{16, 256, 2048}[rng.Intn(3)]
			tag := rng.Intn(8)
			off := rng.Intn(4) * 8192
			p.ops = append(p.ops, func(spu cell.SPU) {
				spu.Put(off, scratchEA+uint64(off), size, tag)
			})
			p.pendingTags |= 1 << uint(tag)
			p.expectRecords++
		case opGetList:
			tag := rng.Intn(8)
			list := []cell.ListElem{
				{EA: scratchEA, Size: 64},
				{EA: scratchEA + 4096, Size: 128},
			}
			p.ops = append(p.ops, func(spu cell.SPU) {
				spu.GetList(16384, list, tag)
			})
			p.pendingTags |= 1 << uint(tag)
			p.expectRecords++
		case opWait:
			mask := p.pendingTags
			if mask == 0 {
				mask = 1
			}
			p.ops = append(p.ops, func(spu cell.SPU) { spu.WaitTagAll(mask) })
			p.pendingTags = 0
			p.expectRecords += 2
		case opAtomicAdd:
			d := uint64(rng.Intn(9) + 1)
			p.ops = append(p.ops, func(spu cell.SPU) { spu.AtomicAdd(atomicEA, d) })
			p.expectRecords += 2
		case opUserEvent:
			a := uint64(rng.Intn(1000))
			p.ops = append(p.ops, func(spu cell.SPU) { core.User(spu, 7, a, a+1) })
			p.expectRecords++
		case opUserLog:
			p.ops = append(p.ops, func(spu cell.SPU) { core.UserLog(spu, "random op") })
			p.expectRecords++
		}
	}
	// Drain outstanding DMA so the program ends quiescent.
	if p.pendingTags != 0 {
		mask := p.pendingTags
		p.ops = append(p.ops, func(spu cell.SPU) { spu.WaitTagAll(mask) })
		p.expectRecords += 2
	}
	return p
}

// runRandom executes one generated scenario and returns the machine's
// final cycle, the trace (nil when untraced) and per-SPE LS snapshots.
func runRandom(t *testing.T, seed int64, nSPE, opsPerSPE int, traced bool) (uint64, *analyzer.Trace, [][]byte, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mc := cell.DefaultConfig()
	mc.NumSPEs = nSPE
	mc.MemSize = 64 * cell.MiB
	m := cell.NewMachine(mc)
	var s *core.Session
	if traced {
		cfg := core.DefaultTraceConfig()
		cfg.Workload = "random"
		s = core.NewSession(m, cfg)
		s.Attach()
	}
	scratch := m.Alloc(64*cell.KiB, 128)
	atomicEA := m.Alloc(8, 8)
	progs := make([]*randProgram, nSPE)
	expect := 0
	for i := range progs {
		progs[i] = genProgram(rng, opsPerSPE, scratch, atomicEA)
		expect += progs[i].expectRecords
	}
	m.RunMain(func(h cell.Host) {
		var hs []*cell.SPEHandle
		for i := 0; i < nSPE; i++ {
			prog := progs[i]
			hs = append(hs, h.Run(i, "random", func(spu cell.SPU) uint32 {
				for _, op := range prog.ops {
					op(spu)
				}
				return 0
			}))
		}
		for _, hd := range hs {
			h.Wait(hd)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	var tr *analyzer.Trace
	if traced {
		var buf bytes.Buffer
		if err := s.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var err error
		tr, err = analyzer.Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	ls := make([][]byte, nSPE)
	for i := range ls {
		ls[i] = append([]byte(nil), m.SPE(i).LS()[:32*cell.KiB]...)
	}
	return m.Now(), tr, ls, expect
}

func TestRandomProgramsDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		c1, _, ls1, _ := runRandom(t, seed, 4, 40, false)
		c2, _, ls2, _ := runRandom(t, seed, 4, 40, false)
		if c1 != c2 {
			t.Fatalf("seed %d: cycles %d vs %d", seed, c1, c2)
		}
		for i := range ls1 {
			if !bytes.Equal(ls1[i], ls2[i]) {
				t.Fatalf("seed %d: SPE %d local store differs between runs", seed, i)
			}
		}
	}
}

func TestRandomProgramsTracedSemanticsUnchanged(t *testing.T) {
	for seed := int64(10); seed <= 15; seed++ {
		_, _, plain, _ := runRandom(t, seed, 3, 30, false)
		_, tr, traced, _ := runRandom(t, seed, 3, 30, true)
		for i := range plain {
			if !bytes.Equal(plain[i], traced[i]) {
				t.Fatalf("seed %d: tracing changed SPE %d data", seed, i)
			}
		}
		if tr == nil || tr.NumEvents() == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
	}
}

func TestRandomProgramsTraceInvariants(t *testing.T) {
	for seed := int64(20); seed <= 27; seed++ {
		_, tr, _, expect := runRandom(t, seed, 4, 50, true)
		if errs := analyzer.Errors(analyzer.Validate(tr)); len(errs) != 0 {
			t.Fatalf("seed %d: validation errors: %v", seed, errs)
		}
		// Record accounting: expected app records + 2 lifecycle per run.
		app := 0
		col := tr.Columns()
		for i, id := range col.ID {
			if col.Core[i] >= event.CorePPEBase {
				continue
			}
			switch id {
			case event.SPEProgramStart, event.SPEProgramEnd, event.SPETraceFlush:
			default:
				app++
			}
		}
		if app != expect {
			t.Fatalf("seed %d: %d app records, expected %d", seed, app, expect)
		}
		// Interval partition: per-state sums equal wall per run.
		s := analyzer.Summarize(tr)
		for _, r := range s.Runs {
			var total uint64
			for _, st := range analyzer.States() {
				total += r.StateTicks[st]
			}
			if total != r.Wall() {
				t.Fatalf("seed %d run %d: states %d != wall %d", seed, r.Run, total, r.Wall())
			}
		}
	}
}

func TestRandomProgramsTraceByteStable(t *testing.T) {
	// The same seed must serialize to the identical trace file.
	write := func(seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		mc := cell.DefaultConfig()
		mc.NumSPEs = 2
		mc.MemSize = 64 * cell.MiB
		m := cell.NewMachine(mc)
		cfg := core.DefaultTraceConfig()
		s := core.NewSession(m, cfg)
		s.Attach()
		scratch := m.Alloc(64*cell.KiB, 128)
		atomicEA := m.Alloc(8, 8)
		progs := []*randProgram{
			genProgram(rng, 30, scratch, atomicEA),
			genProgram(rng, 30, scratch, atomicEA),
		}
		m.RunMain(func(h cell.Host) {
			var hs []*cell.SPEHandle
			for i := range progs {
				prog := progs[i]
				hs = append(hs, h.Run(i, "r", func(spu cell.SPU) uint32 {
					for _, op := range prog.ops {
						op(spu)
					}
					return 0
				}))
			}
			for _, hd := range hs {
				h.Wait(hd)
			}
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := write(42)
	b := write(42)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different trace bytes")
	}
}
