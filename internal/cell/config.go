// Package cell models the Cell Broadband Engine processor as a
// deterministic discrete-event system: one PPE (with spawnable threads),
// a configurable number of SPEs each with a 256 KiB local store and an MFC
// (DMA queue, tag groups, mailboxes, signal-notification registers,
// atomic commands), an EIB bandwidth model, and a main-memory controller.
//
// Programs are ordinary Go functions written against the SPU and Host
// interfaces; DMA really moves bytes between local stores and main memory,
// so workloads compute verifiable results while the kernel accounts cycles.
package cell

// Kibi/Mebi byte sizes used throughout the model.
const (
	KiB = 1024
	MiB = 1024 * KiB
)

// Effective-address map: main memory occupies [0, MemSize); the local store
// of SPE i is aliased at LSBaseEA + i*LSSpanEA, as on real Cell hardware
// where local stores are mapped into the effective-address space (this is
// what makes SPE-to-SPE DMA possible).
const (
	LSBaseEA = 0x4000_0000
	LSSpanEA = 0x0010_0000
)

// MaxDMASize is the architectural limit for a single MFC transfer.
const MaxDMASize = 16 * KiB

// NumTagGroups is the number of MFC tag groups per SPE.
const NumTagGroups = 32

// Config holds the machine parameters. The defaults approximate a 3.2 GHz
// Cell BE with 8 SPEs; all timing is expressed in 3.2 GHz cycles.
type Config struct {
	NumSPEs int // number of synergistic processing elements
	// MemSize is the bytes of simulated main (XDR) memory, at most
	// LSBaseEA (1 GiB). It is address space, not a cost: on unix main
	// memory is demand-zeroed (see Machine.Mem), so a machine pays for
	// the pages its workload touches.
	MemSize       int
	LocalStore    int    // bytes of local store per SPE
	TimebaseDiv   uint64 // cycles per timebase tick (3.2GHz/40 = 80 MHz)
	MFCQueueDepth int    // MFC command queue entries per SPE

	InMboxDepth      int // PPE->SPU mailbox depth
	OutMboxDepth     int // SPU->PPE mailbox depth
	OutIntrMboxDepth int // SPU->PPE interrupting mailbox depth

	EIBRings         int     // parallel EIB data rings
	EIBBytesPerCycle float64 // per-ring bandwidth
	EIBStartup       uint64  // per-transfer arbitration+setup latency, cycles

	MemBytesPerCycle float64 // memory interface controller bandwidth
	MemLatency       uint64  // fixed memory access latency, cycles

	MFCIssueCost   uint64 // SPU cycles to enqueue an MFC command
	MboxAccessCost uint64 // SPU/PPE cycles per mailbox register access
	SignalCost     uint64 // cycles per signal-register access
	AtomicCost     uint64 // cycles per atomic (getllar/putllc-style) op

	SPEStartupCost uint64 // cycles to load+start an SPE context from the PPE
}

// DefaultConfig returns the reference machine: 8 SPEs, 256 KiB local
// stores, 25.6 GB/s memory interface (8 B/cycle at 3.2 GHz), four EIB data
// rings of 25.6 GB/s each.
func DefaultConfig() Config {
	return Config{
		NumSPEs:          8,
		MemSize:          64 * MiB,
		LocalStore:       256 * KiB,
		TimebaseDiv:      40,
		MFCQueueDepth:    16,
		InMboxDepth:      4,
		OutMboxDepth:     1,
		OutIntrMboxDepth: 1,
		EIBRings:         4,
		EIBBytesPerCycle: 8,
		EIBStartup:       100,
		MemBytesPerCycle: 8,
		MemLatency:       200,
		MFCIssueCost:     10,
		MboxAccessCost:   10,
		SignalCost:       10,
		AtomicCost:       50,
		SPEStartupCost:   2000,
	}
}

// validate panics on obviously broken configurations; NewMachine calls it.
func (c *Config) validate() {
	switch {
	case c.NumSPEs <= 0 || c.NumSPEs > 16:
		panic("cell: NumSPEs must be in 1..16")
	case c.MemSize <= 0:
		panic("cell: MemSize must be positive")
	case c.MemSize > LSBaseEA:
		panic("cell: MemSize overlaps the local-store EA window")
	case c.LocalStore <= 0 || c.LocalStore > LSSpanEA:
		panic("cell: LocalStore must be in (0, LSSpanEA]")
	case c.TimebaseDiv == 0:
		panic("cell: TimebaseDiv must be nonzero")
	case c.MFCQueueDepth <= 0:
		panic("cell: MFCQueueDepth must be positive")
	case c.InMboxDepth <= 0 || c.OutMboxDepth <= 0 || c.OutIntrMboxDepth <= 0:
		panic("cell: mailbox depths must be positive")
	case c.EIBRings <= 0 || c.EIBBytesPerCycle <= 0:
		panic("cell: EIB parameters must be positive")
	case c.MemBytesPerCycle <= 0:
		panic("cell: MemBytesPerCycle must be positive")
	}
}
