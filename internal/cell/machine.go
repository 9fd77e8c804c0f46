package cell

import (
	"context"
	"fmt"

	"github.com/celltrace/pdt/internal/sim"
)

// Machine is one simulated Cell BE processor plus its main memory.
type Machine struct {
	cfg Config
	eng *sim.Engine

	mem       []byte
	allocNext uint64

	eib    *sim.BandwidthServer // data rings
	memBus *sim.BandwidthServer // memory interface controller

	spes []*SPE

	atomicUnit *sim.Resource // serializes atomic line operations

	// SPUWrap, when non-nil, wraps every SPU context handed to a program
	// (the PDT instrumented runtime installs itself here, playing the
	// role of the instrumented SPU libraries). The returned finish hook,
	// if non-nil, runs after the program returns with its exit code.
	SPUWrap SPUWrapper
	// HostWrap likewise wraps every Host context (instrumented libspe2).
	HostWrap func(Host) Host

	// DMAStall, when non-nil, is consulted once per MFC command as it
	// starts executing and returns extra cycles the command must stall
	// before touching the interconnect (fault injection). The stall holds
	// the MFC's in-order execution slot, so it backpressures the whole
	// command queue exactly as a slow real transfer would.
	DMAStall func(spe, tag int, now uint64) uint64
}

// SPUWrapper wraps an SPU context at program start; see Machine.SPUWrap.
type SPUWrapper func(u SPU, name string) (SPU, func(exitCode uint32))

// NewMachine builds a machine from cfg. Call RunMain to install the PPE
// main program, then Run to simulate.
func NewMachine(cfg Config) *Machine {
	cfg.validate()
	eng := sim.NewEngine()
	m := &Machine{
		cfg:        cfg,
		eng:        eng,
		eib:        sim.NewBandwidthServer(eng, cfg.EIBRings, cfg.EIBBytesPerCycle, cfg.EIBStartup),
		memBus:     sim.NewBandwidthServer(eng, 1, cfg.MemBytesPerCycle, cfg.MemLatency),
		atomicUnit: sim.NewResource(eng, 1),
	}
	m.mem = newMainMemory(m, cfg.MemSize)
	for i := 0; i < cfg.NumSPEs; i++ {
		m.spes = append(m.spes, newSPE(m, i))
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Engine exposes the simulation engine (tests and the harness use it).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Now returns the current simulated cycle.
func (m *Machine) Now() uint64 { return m.eng.Now() }

// Timebase returns the current timebase tick (cycles / TimebaseDiv).
func (m *Machine) Timebase() uint64 { return m.eng.Now() / m.cfg.TimebaseDiv }

// Mem exposes the simulated main memory. Host code may read/write it
// directly (the PPE has cache-coherent access to main storage); timing for
// bulk PPE access should be modeled with Host.Compute.
//
// The slice, and anything sliced from it, is valid only while the Machine
// is reachable: on unix the bytes are a private mapping outside the Go
// heap, unmapped once the collector finds the Machine unreachable, and a
// slice of them keeps nothing alive. Re-derive from Mem() rather than
// storing a slice beside a machine that may be dropped, and where the
// last mention of the machine is the call that derives the slice, follow
// the last use of the slice with runtime.KeepAlive(m).
func (m *Machine) Mem() []byte { return m.mem }

// Alloc carves size bytes out of main memory at the given alignment and
// returns the effective address. It panics when memory is exhausted
// (simulated machines are sized by the caller).
func (m *Machine) Alloc(size, align int) uint64 {
	if size < 0 {
		panic("cell: Alloc negative size")
	}
	if align <= 0 {
		align = 1
	}
	a := uint64(align)
	next := (m.allocNext + a - 1) / a * a
	if next+uint64(size) > uint64(len(m.mem)) {
		panic(fmt.Sprintf("cell: out of simulated memory (%d requested at %d of %d)",
			size, next, len(m.mem)))
	}
	m.allocNext = next + uint64(size)
	return next
}

// SPE returns SPE number i.
func (m *Machine) SPE(i int) *SPE { return m.spes[i] }

// NumSPEs returns the configured SPE count.
func (m *Machine) NumSPEs() int { return len(m.spes) }

// resolveEA maps an effective address range onto its backing storage:
// main memory or some SPE's local store. It panics on unmapped or
// straddling ranges, as the hardware would raise an MFC exception.
func (m *Machine) resolveEA(ea uint64, size int) (buf []byte, isLS bool, spe int) {
	end := ea + uint64(size)
	if end <= uint64(len(m.mem)) {
		return m.mem[ea:end], false, -1
	}
	if ea >= LSBaseEA {
		idx := int((ea - LSBaseEA) / LSSpanEA)
		off := (ea - LSBaseEA) % LSSpanEA
		if idx < len(m.spes) && off+uint64(size) <= uint64(len(m.spes[idx].ls)) {
			return m.spes[idx].ls[off : off+uint64(size)], true, idx
		}
	}
	panic(fmt.Sprintf("cell: DMA exception: EA range [0x%x,0x%x) unmapped", ea, end))
}

// signalReg resolves SPE spe's signal-notification register 1 or 2,
// panicking on bad indices (the hardware would raise an exception for an
// unmapped problem-state access).
func (m *Machine) signalReg(spe, reg int) *signalReg {
	if spe < 0 || spe >= len(m.spes) {
		panic(fmt.Sprintf("cell: signal target SPE %d out of range", spe))
	}
	switch reg {
	case 1:
		return m.spes[spe].sig1
	case 2:
		return m.spes[spe].sig2
	}
	panic(fmt.Sprintf("cell: signal register %d out of range", reg))
}

// LSEA returns the effective address at which SPE i's local store offset
// off is aliased (for SPE-to-SPE and PPE-to-LS DMA).
func LSEA(spe int, off uint64) uint64 {
	return LSBaseEA + uint64(spe)*LSSpanEA + off
}

// RunMain installs and schedules the PPE main program. The Host passed to
// fn must only be used from within fn (it is bound to fn's process).
func (m *Machine) RunMain(fn func(h Host)) { m.spawnHost("ppe:main", fn) }

// spawnHost starts a PPE thread process running fn.
func (m *Machine) spawnHost(name string, fn func(h Host)) {
	m.eng.Spawn(name, func(p *sim.Proc) {
		var h Host = &hostCtx{m: m, p: p, name: name}
		if m.HostWrap != nil {
			h = m.HostWrap(h)
		}
		fn(h)
	})
}

// CrashAt schedules a whole-machine crash: at the given cycle the
// simulation stops dead (Run returns sim.ErrStopped) with every process —
// SPU programs, MFC transfers, PPE threads — abandoned mid-flight, the
// model of a hard fault while the workload runs. If everything has
// already finished by then, the crash is a no-op and Run returns
// normally. Call before Run.
func (m *Machine) CrashAt(cycle uint64) {
	m.eng.SpawnAt(cycle, "fault:kill", func(p *sim.Proc) {
		e := p.Engine()
		if e.Live() > 1 { // anything besides this killer still running?
			e.Stop()
		}
	})
}

// Run simulates until all processes finish (deadlocks propagate from the
// kernel as errors).
func (m *Machine) Run() error { return m.eng.Run() }

// RunContext simulates like Run but aborts with ctx.Err() when the
// context is cancelled or its deadline expires, unwinding every live
// process. Wall-clock bounded runs (`pdt-run -timeout`) use it to keep a
// stuck or runaway simulation diagnosable.
func (m *Machine) RunContext(ctx context.Context) error { return m.eng.RunContext(ctx) }

// EIBStats returns lifetime EIB totals (bytes, transfers, busy ring-cycles).
func (m *Machine) EIBStats() (bytes, transfers, busy uint64) { return m.eib.Stats() }

// MemBusStats returns lifetime memory-interface totals.
func (m *Machine) MemBusStats() (bytes, transfers, busy uint64) { return m.memBus.Stats() }
