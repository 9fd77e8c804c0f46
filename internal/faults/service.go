package faults

// Service-level fault injection: where Plan disturbs the simulated
// tracer (cycles, DMAs, serialized bytes), ServicePlan disturbs the
// analysis service's durable state — the disk cache tier and the job
// journal — plus the process itself. The same philosophy applies:
// deterministic, seed-free consumption order, so a chaos run is
// reproducible from the plan it was given.
//
// A plan is a value: callers build one as a struct literal of rules.
// A rule's zero Count or Nth never fires, so a literal spells out what
// it arms (DiskFullRule{After: 2, Count: 1}, TornRule{Nth: 1, Keep: -1}).
//
// Unlike Plan, a ServicePlan is consulted from concurrent request and
// worker goroutines, so its consumption state is mutex-guarded.

import (
	"errors"
	"sync"
	"time"
)

// ErrDiskFull is the injected write failure for DiskFullRule; it
// stands in for ENOSPC.
var ErrDiskFull = errors.New("faults: injected disk full")

// ErrTornWrite is returned alongside a partial write for TornRule: the
// bytes before the tear reached the medium, the rest — and the success
// return — never happened.
var ErrTornWrite = errors.New("faults: injected torn write")

// EveryTime is the Count of a DiskFullRule or NetDropRule that fires on
// every matching call once armed.
const EveryTime = -1

// DiskFullRule fails writes once After total payload bytes have been
// written, Count times (EveryTime = forever).
type DiskFullRule struct {
	After int64
	Count int
	used  int
}

// TornRule tears the Nth write so that only Keep bytes persist.
// Keep < 0 means half of the attempted write.
type TornRule struct {
	Nth  int
	Keep int
	done bool
}

// KillRule requests a process kill the Nth time a job reaches Phase,
// one of the job manager's phase names (jobs.Phases).
type KillRule struct {
	Phase string
	Nth   int
	seen  int
}

// NetDropRule fails calls to a peer: the next Count calls (EveryTime =
// all of them). Peer "*" matches any peer.
type NetDropRule struct {
	Peer  string
	Count int
	used  int
}

// PartitionRule drops all traffic between the two named sides. It is
// evaluated against (self, callee): the call fails when the two names
// sit on opposite sides.
type PartitionRule struct {
	A, B []string
}

func (r PartitionRule) separates(self, peer string) bool {
	return (contains(r.A, self) && contains(r.B, peer)) ||
		(contains(r.B, self) && contains(r.A, peer))
}

func contains(names []string, n string) bool {
	for _, v := range names {
		if v == n {
			return true
		}
	}
	return false
}

// ServicePlan is a service-level fault plan. The zero value (and a nil
// plan) injects nothing; all methods are nil-safe and concurrency-safe.
type ServicePlan struct {
	DiskFulls []DiskFullRule
	SlowDisk  time.Duration
	Torns     []TornRule
	Kills     []KillRule
	NetDrops  []NetDropRule
	// Partitions are guarded by mu: chaos harnesses arm and heal them at
	// runtime (Partition/Heal) while request goroutines consult NetFault.
	Partitions []PartitionRule

	mu      sync.Mutex
	written int64 // total payload bytes successfully presented for write
	writes  int   // total write attempts, for torn's Nth
}

// BeforeIO blocks for the configured slow-disk delay. Call it at the
// top of every disk operation (reads and writes both — a slow disk does
// not care which way the bytes flow).
func (p *ServicePlan) BeforeIO() {
	if p == nil || p.SlowDisk == 0 {
		return
	}
	time.Sleep(p.SlowDisk)
}

// WriteFault is consulted once per disk write of n payload bytes, in
// consumption order. It returns how many bytes actually persist and the
// injected error, if any:
//
//   - keep == n, err == nil: the write proceeds untouched.
//   - err == ErrDiskFull: nothing persists; the write fails cleanly.
//   - err == ErrTornWrite: exactly keep < n bytes persist and then the
//     "process dies" mid-write; the caller must persist the prefix and
//     propagate the error without retrying.
func (p *ServicePlan) WriteFault(n int) (keep int, err error) {
	if p == nil {
		return n, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writes++
	for i := range p.Torns {
		r := &p.Torns[i]
		if !r.done && p.writes == r.Nth {
			r.done = true
			keep = r.Keep
			if keep < 0 {
				keep = n / 2
			}
			if keep > n {
				keep = n
			}
			p.written += int64(keep)
			return keep, ErrTornWrite
		}
	}
	for i := range p.DiskFulls {
		r := &p.DiskFulls[i]
		armed := p.written >= r.After
		if armed && (r.Count == EveryTime || r.used < r.Count) {
			r.used++
			return 0, ErrDiskFull
		}
	}
	p.written += int64(n)
	return n, nil
}

// ErrNetDrop is the injected connection failure for NetDropRule and
// PartitionRule; it stands in for a refused or reset connection.
var ErrNetDrop = errors.New("faults: injected network drop")

// NetFault is consulted once per outgoing peer call from self to peer,
// in consumption order, and reports whether the call must fail with
// ErrNetDrop instead of reaching the network.
func (p *ServicePlan) NetFault(self, peer string) (drop bool) {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.NetDrops {
		r := &p.NetDrops[i]
		if r.Peer != "*" && r.Peer != peer {
			continue
		}
		if r.Count == EveryTime || r.used < r.Count {
			r.used++
			return true
		}
	}
	for _, r := range p.Partitions {
		if r.separates(self, peer) {
			return true
		}
	}
	return false
}

// Partition arms a partition rule at runtime — the chaos harness's way
// of cutting a link mid-request without restarting the process.
func (p *ServicePlan) Partition(a, b []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Partitions = append(p.Partitions, PartitionRule{A: a, B: b})
}

// Heal lifts every partition and exhausts nothing else: drop budgets
// keep their state. The chaos harness calls it to model a network that
// recovers.
func (p *ServicePlan) Heal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Partitions = nil
}

// Kill reports whether the process should die now, at the given job
// phase, consuming the matching rule occurrence.
func (p *ServicePlan) Kill(phase string) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.Kills {
		r := &p.Kills[i]
		if r.Phase == phase {
			r.seen++
			if r.seen == r.Nth {
				return true
			}
		}
	}
	return false
}
