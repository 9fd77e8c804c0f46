package faults

// Service-level fault injection: where Plan disturbs the simulated
// tracer (cycles, DMAs, serialized bytes), ServicePlan disturbs the
// analysis service's durable state — the disk cache tier and the job
// journal — plus the process itself. The same philosophy applies:
// deterministic, seed-free consumption order, parsed from a compact
// spec so a chaos run is reproducible from its command line.
//
// Spec grammar: comma-separated directives, fields separated by colons.
//
//	diskfull:AFTER[:N]     fail disk writes once AFTER total payload
//	                       bytes have been written; N failures
//	                       (default 1, * = every write from then on)
//	slowdisk:MS            delay every disk I/O by MS milliseconds
//	torn:NTH[:KEEP]        the NTH disk write (1-based, counting every
//	                       write attempt) persists only KEEP bytes
//	                       (default half) and reports ErrTornWrite —
//	                       the caller must treat it as a crash point
//	killphase:PHASE[:NTH]  request a process kill at the NTH time a job
//	                       reaches PHASE (accept|start|render|done|
//	                       webhook; default 1)
//	netdrop:PEER[:N]       fail the next N calls to the named peer
//	                       (default 1, * = every call) with an injected
//	                       connection error; PEER may be * for any peer
//	netlat:PEER:MS         delay every call to the named peer by MS
//	                       milliseconds (PEER may be *)
//	partition:A|B          drop all traffic between side A and side B;
//	                       each side is a +-separated peer-name list and
//	                       the rule applies when this process's own name
//	                       is on one side and the callee on the other
//
// Example: diskfull:4096:*,slowdisk:5,netlat:b:20,partition:a|b+c
//
// Unlike Plan, a ServicePlan is consulted from concurrent request and
// worker goroutines, so its consumption state is mutex-guarded.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// ErrDiskFull is the injected write failure for diskfull directives; it
// stands in for ENOSPC.
var ErrDiskFull = errors.New("faults: injected disk full")

// ErrTornWrite is returned alongside a partial write for torn
// directives: the bytes before the tear reached the medium, the rest —
// and the success return — never happened.
var ErrTornWrite = errors.New("faults: injected torn write")

// EveryTime marks a diskfull rule that fails all writes once armed
// (spelled * in specs).
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

// KillRule requests a process kill the Nth time a job reaches Phase.
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

// NetLatRule delays every call to a peer. Peer "*" matches any peer.
type NetLatRule struct {
	Peer  string
	Delay time.Duration
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

// ServicePlan is a parsed service-level fault plan. The zero value (and
// a nil plan) injects nothing; all methods are nil-safe and
// concurrency-safe.
type ServicePlan struct {
	DiskFulls []DiskFullRule
	SlowDisk  time.Duration
	Torns     []TornRule
	Kills     []KillRule
	NetDrops  []NetDropRule
	NetLats   []NetLatRule
	// Partitions are guarded by mu: chaos harnesses arm and heal them at
	// runtime (Partition/Heal) while request goroutines consult NetFault.
	Partitions []PartitionRule

	mu      sync.Mutex
	written int64 // total payload bytes successfully presented for write
	writes  int   // total write attempts, for torn's Nth
}

// JobPhases lists the job phases killphase accepts, in lifecycle order.
var JobPhases = []string{"accept", "start", "render", "done", "webhook"}

func validPhase(p string) bool {
	for _, ph := range JobPhases {
		if p == ph {
			return true
		}
	}
	return false
}

// ParseService builds a ServicePlan from a spec string; see the file
// comment for the grammar. An empty spec yields an empty plan.
func ParseService(spec string) (*ServicePlan, error) {
	p := &ServicePlan{}
	for _, dir := range strings.Split(spec, ",") {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		fields := strings.Split(dir, ":")
		name, args := fields[0], fields[1:]
		var err error
		switch name {
		case "diskfull":
			err = p.parseDiskFull(args)
		case "slowdisk":
			err = p.parseSlowDisk(args)
		case "torn":
			err = p.parseTorn(args)
		case "killphase":
			err = p.parseKillPhase(args)
		case "netdrop":
			err = p.parseNetDrop(args)
		case "netlat":
			err = p.parseNetLat(args)
		case "partition":
			err = p.parsePartition(args)
		default:
			err = fmt.Errorf("unknown directive %q", name)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: %q: %w", dir, err)
		}
	}
	return p, nil
}

func (p *ServicePlan) parseDiskFull(args []string) error {
	if err := argCount(args, 1, 2); err != nil {
		return err
	}
	after, err := parseU64(args[0], "byte threshold")
	if err != nil {
		return err
	}
	r := DiskFullRule{After: int64(after), Count: 1}
	if len(args) == 2 {
		if args[1] == "*" {
			r.Count = EveryTime
		} else {
			n, err := parseU64(args[1], "count")
			if err != nil {
				return err
			}
			r.Count = int(n)
		}
	}
	p.DiskFulls = append(p.DiskFulls, r)
	return nil
}

func (p *ServicePlan) parseSlowDisk(args []string) error {
	if err := argCount(args, 1, 1); err != nil {
		return err
	}
	ms, err := parseU64(args[0], "milliseconds")
	if err != nil {
		return err
	}
	p.SlowDisk = time.Duration(ms) * time.Millisecond
	return nil
}

func (p *ServicePlan) parseTorn(args []string) error {
	if err := argCount(args, 1, 2); err != nil {
		return err
	}
	nth, err := parseU64(args[0], "write index")
	if err != nil || nth == 0 {
		return fmt.Errorf("bad write index %q (1-based)", args[0])
	}
	r := TornRule{Nth: int(nth), Keep: -1}
	if len(args) == 2 {
		keep, err := parseU64(args[1], "keep bytes")
		if err != nil {
			return err
		}
		r.Keep = int(keep)
	}
	p.Torns = append(p.Torns, r)
	return nil
}

func (p *ServicePlan) parseKillPhase(args []string) error {
	if err := argCount(args, 1, 2); err != nil {
		return err
	}
	if !validPhase(args[0]) {
		return fmt.Errorf("bad phase %q (want one of %s)", args[0], strings.Join(JobPhases, "|"))
	}
	r := KillRule{Phase: args[0], Nth: 1}
	if len(args) == 2 {
		n, err := parseU64(args[1], "occurrence")
		if err != nil || n == 0 {
			return fmt.Errorf("bad occurrence %q (1-based)", args[1])
		}
		r.Nth = int(n)
	}
	p.Kills = append(p.Kills, r)
	return nil
}

func (p *ServicePlan) parseNetDrop(args []string) error {
	if err := argCount(args, 1, 2); err != nil {
		return err
	}
	if args[0] == "" {
		return fmt.Errorf("empty peer name")
	}
	r := NetDropRule{Peer: args[0], Count: 1}
	if len(args) == 2 {
		if args[1] == "*" {
			r.Count = EveryTime
		} else {
			n, err := parseU64(args[1], "count")
			if err != nil || n == 0 {
				return fmt.Errorf("bad count %q", args[1])
			}
			r.Count = int(n)
		}
	}
	p.NetDrops = append(p.NetDrops, r)
	return nil
}

func (p *ServicePlan) parseNetLat(args []string) error {
	if err := argCount(args, 2, 2); err != nil {
		return err
	}
	if args[0] == "" {
		return fmt.Errorf("empty peer name")
	}
	ms, err := parseU64(args[1], "milliseconds")
	if err != nil {
		return err
	}
	p.NetLats = append(p.NetLats, NetLatRule{Peer: args[0], Delay: time.Duration(ms) * time.Millisecond})
	return nil
}

func (p *ServicePlan) parsePartition(args []string) error {
	if err := argCount(args, 1, 1); err != nil {
		return err
	}
	sides := strings.Split(args[0], "|")
	if len(sides) != 2 {
		return fmt.Errorf("want exactly two |-separated sides, got %q", args[0])
	}
	rule := PartitionRule{A: splitSide(sides[0]), B: splitSide(sides[1])}
	if len(rule.A) == 0 || len(rule.B) == 0 {
		return fmt.Errorf("empty partition side in %q", args[0])
	}
	p.Partitions = append(p.Partitions, rule)
	return nil
}

// splitSide parses one +-separated peer-name list, dropping empties.
func splitSide(s string) []string {
	var out []string
	for _, n := range strings.Split(s, "+") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// Empty reports whether the plan injects nothing.
func (p *ServicePlan) Empty() bool {
	return p == nil || (len(p.DiskFulls) == 0 && p.SlowDisk == 0 &&
		len(p.Torns) == 0 && len(p.Kills) == 0 &&
		len(p.NetDrops) == 0 && len(p.NetLats) == 0 && len(p.Partitions) == 0)
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

// ErrNetDrop is the injected connection failure for netdrop and
// partition directives; it stands in for a refused or reset connection.
var ErrNetDrop = errors.New("faults: injected network drop")

// NetFault is consulted once per outgoing peer call from self to peer,
// in consumption order. It returns an injected latency to apply before
// the call and whether the call must fail with ErrNetDrop instead of
// reaching the network. Latency applies even to dropped calls — a
// partitioned link looks slow before it looks dead.
func (p *ServicePlan) NetFault(self, peer string) (delay time.Duration, drop bool) {
	if p == nil {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.NetLats {
		if r.Peer == "*" || r.Peer == peer {
			delay += r.Delay
		}
	}
	for i := range p.NetDrops {
		r := &p.NetDrops[i]
		if r.Peer != "*" && r.Peer != peer {
			continue
		}
		if r.Count == EveryTime || r.used < r.Count {
			r.used++
			return delay, true
		}
	}
	for _, r := range p.Partitions {
		if r.separates(self, peer) {
			return delay, true
		}
	}
	return delay, false
}

// Partition arms a partition rule at runtime — the chaos harness's way
// of cutting a link mid-request without restarting the process.
func (p *ServicePlan) Partition(a, b []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Partitions = append(p.Partitions, PartitionRule{A: a, B: b})
}

// Heal lifts every partition and exhausts nothing else: netdrop budgets
// and latency rules keep their state. The chaos harness calls it to
// model a network that recovers.
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

// String renders the plan back to a canonical spec (consumption state
// is not represented).
func (p *ServicePlan) String() string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var parts []string
	for _, r := range p.DiskFulls {
		if r.Count == EveryTime {
			parts = append(parts, fmt.Sprintf("diskfull:%d:*", r.After))
		} else {
			parts = append(parts, fmt.Sprintf("diskfull:%d:%d", r.After, r.Count))
		}
	}
	if p.SlowDisk != 0 {
		parts = append(parts, fmt.Sprintf("slowdisk:%d", p.SlowDisk/time.Millisecond))
	}
	for _, r := range p.Torns {
		if r.Keep < 0 {
			parts = append(parts, fmt.Sprintf("torn:%d", r.Nth))
		} else {
			parts = append(parts, fmt.Sprintf("torn:%d:%d", r.Nth, r.Keep))
		}
	}
	for _, r := range p.Kills {
		parts = append(parts, fmt.Sprintf("killphase:%s:%d", r.Phase, r.Nth))
	}
	for _, r := range p.NetDrops {
		if r.Count == EveryTime {
			parts = append(parts, fmt.Sprintf("netdrop:%s:*", r.Peer))
		} else {
			parts = append(parts, fmt.Sprintf("netdrop:%s:%d", r.Peer, r.Count))
		}
	}
	for _, r := range p.NetLats {
		parts = append(parts, fmt.Sprintf("netlat:%s:%d", r.Peer, r.Delay/time.Millisecond))
	}
	for _, r := range p.Partitions {
		parts = append(parts, fmt.Sprintf("partition:%s|%s",
			strings.Join(r.A, "+"), strings.Join(r.B, "+")))
	}
	return strings.Join(parts, ",")
}
