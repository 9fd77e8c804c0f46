package cell

import (
	"fmt"

	"github.com/celltrace/pdt/internal/sim"
)

// cmdKind enumerates MFC command opcodes we model.
type cmdKind uint8

const (
	cmdGet cmdKind = iota
	cmdPut
	cmdGetList
	cmdPutList
	cmdSndsig
	numCmdKinds
)

func (k cmdKind) String() string {
	switch k {
	case cmdGet:
		return "GET"
	case cmdPut:
		return "PUT"
	case cmdGetList:
		return "GETL"
	case cmdPutList:
		return "PUTL"
	case cmdSndsig:
		return "SNDSIG"
	}
	return "?"
}

// mfcCmd is one queued MFC command.
type mfcCmd struct {
	kind  cmdKind
	lsOff int
	ea    uint64
	size  int
	list  []ListElem
	tag   int

	// sndsig payload
	sigTarget *signalReg
	sigValue  uint32
}

// mfc models one SPE's memory flow controller: a bounded in-order command
// queue serviced asynchronously from the SPU, with per-tag-group completion
// tracking. Each command is executed by its own short-lived simulation
// process; strict queue order is enforced by a FIFO serialization resource,
// and queue-full backpressure stalls the issuing SPU exactly as a write to
// a full MFC command queue stalls a real SPU.
type mfc struct {
	spe    *SPE
	slots  *sim.Resource // command queue occupancy (depth 16)
	serial *sim.Resource // in-order execution

	outstanding [NumTagGroups]int
	tagWaiters  *sim.WaitQueue // broadcast whenever a tag group drains

	// procNames is the simulation-process name of a command of each kind
	// ("mfc3:GET"), built once: one process is spawned per command.
	procNames [numCmdKinds]string

	totalCmds    uint64
	totalBytes   uint64
	totalLatency uint64
}

func newMFC(s *SPE) *mfc {
	e := s.m.eng
	f := &mfc{
		spe:        s,
		slots:      sim.NewResource(e, s.m.cfg.MFCQueueDepth),
		serial:     sim.NewResource(e, 1),
		tagWaiters: sim.NewWaitQueue(e),
	}
	for k := range f.procNames {
		f.procNames[k] = fmt.Sprintf("mfc%d:%s", s.idx, cmdKind(k))
	}
	return f
}

// checkDMA validates architectural transfer constraints and panics (the
// model's MFC exception) on violations.
func checkDMA(lsOff int, ea uint64, size, tag, lsSize int) {
	if tag < 0 || tag >= NumTagGroups {
		panic(fmt.Sprintf("cell: DMA exception: tag %d out of range", tag))
	}
	if size <= 0 || size > MaxDMASize {
		panic(fmt.Sprintf("cell: DMA exception: size %d out of range (0,%d]", size, MaxDMASize))
	}
	switch size {
	case 1, 2, 4, 8:
		a := uint64(size)
		if uint64(lsOff)%a != 0 || ea%a != 0 {
			panic(fmt.Sprintf("cell: DMA exception: %d-byte transfer misaligned (ls=0x%x ea=0x%x)", size, lsOff, ea))
		}
	default:
		if size%16 != 0 {
			panic(fmt.Sprintf("cell: DMA exception: size %d not 1/2/4/8 or multiple of 16", size))
		}
		if lsOff%16 != 0 || ea%16 != 0 {
			panic(fmt.Sprintf("cell: DMA exception: transfer not 16-byte aligned (ls=0x%x ea=0x%x)", lsOff, ea))
		}
	}
	if lsOff < 0 || lsOff+size > lsSize {
		panic(fmt.Sprintf("cell: DMA exception: LS range [0x%x,0x%x) outside local store", lsOff, lsOff+size))
	}
}

// issue enqueues a command on behalf of the SPU process p, blocking while
// the command queue is full, then returns; execution proceeds
// asynchronously.
func (f *mfc) issue(p *sim.Proc, cmd mfcCmd) {
	switch cmd.kind {
	case cmdSndsig:
		if cmd.tag < 0 || cmd.tag >= NumTagGroups {
			panic(fmt.Sprintf("cell: DMA exception: tag %d out of range", cmd.tag))
		}
	case cmdGet, cmdPut:
		checkDMA(cmd.lsOff, cmd.ea, cmd.size, cmd.tag, len(f.spe.ls))
	case cmdGetList, cmdPutList:
		if len(cmd.list) == 0 {
			panic("cell: DMA exception: empty list command")
		}
		off := cmd.lsOff
		for _, el := range cmd.list {
			checkDMA(off, el.EA, el.Size, cmd.tag, len(f.spe.ls))
			off += el.Size
		}
	}
	p.Delay(f.spe.m.cfg.MFCIssueCost)
	f.slots.Acquire(p, 1) // stall on full command queue
	f.outstanding[cmd.tag]++
	issued := p.Now()
	f.spe.m.eng.Spawn(f.procNames[cmd.kind], func(dp *sim.Proc) {
		f.serial.Acquire(dp, 1) // strict in-order execution
		if st := f.spe.m.DMAStall; st != nil {
			// Injected stall: holds the serial slot, so later commands
			// queue behind it.
			if extra := st(f.spe.idx, cmd.tag, dp.Now()); extra > 0 {
				dp.Delay(extra)
			}
		}
		switch cmd.kind {
		case cmdSndsig:
			// A signal send is a tiny EIB transaction to the target
			// SPE's signal-notification register.
			f.spe.m.eib.Transfer(dp, 4)
			cmd.sigTarget.write(cmd.sigValue)
		case cmdGet, cmdPut:
			f.transfer(dp, cmd.kind == cmdGet, cmd.lsOff, cmd.ea, cmd.size)
		case cmdGetList, cmdPutList:
			off := cmd.lsOff
			for _, el := range cmd.list {
				f.transfer(dp, cmd.kind == cmdGetList, off, el.EA, el.Size)
				off += el.Size
			}
		}
		f.serial.Release(1)
		f.slots.Release(1)
		f.outstanding[cmd.tag]--
		if f.outstanding[cmd.tag] == 0 {
			f.tagWaiters.Broadcast()
		}
		f.totalCmds++
		f.totalLatency += dp.Now() - issued
	})
}

// transfer moves size bytes between local store and the effective-address
// space, holding the EIB for the interconnect segment and the memory
// interface controller for main-storage targets. Latency composes the two
// segments sequentially; sustained bandwidth under load is set by the
// bottleneck server.
func (f *mfc) transfer(dp *sim.Proc, toLS bool, lsOff int, ea uint64, size int) {
	remote, remoteIsLS, _ := f.spe.m.resolveEA(ea, size)
	f.spe.m.eib.Transfer(dp, size)
	if !remoteIsLS {
		f.spe.m.memBus.Transfer(dp, size)
	}
	local := f.spe.ls[lsOff : lsOff+size]
	if toLS {
		copy(local, remote)
	} else {
		copy(remote, local)
	}
	f.totalBytes += uint64(size)
}

// status returns the subset of mask whose tag groups have no outstanding
// commands.
func (f *mfc) status(mask uint32) uint32 {
	var done uint32
	for t := 0; t < NumTagGroups; t++ {
		bit := uint32(1) << uint(t)
		if mask&bit != 0 && f.outstanding[t] == 0 {
			done |= bit
		}
	}
	return done
}

// waitAll blocks p until every tag group in mask has drained.
func (f *mfc) waitAll(p *sim.Proc, mask uint32) {
	for f.status(mask) != mask {
		f.tagWaiters.Wait(p)
	}
}

// waitAny blocks p until at least one tag group in mask has drained and
// returns the drained subset.
func (f *mfc) waitAny(p *sim.Proc, mask uint32) uint32 {
	if mask == 0 {
		return 0
	}
	for {
		if done := f.status(mask); done != 0 {
			return done
		}
		f.tagWaiters.Wait(p)
	}
}
