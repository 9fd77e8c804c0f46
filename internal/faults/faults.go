// Package faults implements deterministic fault injection at two levels.
//
// Plan disturbs the simulated tracer stack: killing a run at an
// arbitrary cycle, stalling or failing trace-flush DMAs, and corrupting
// or truncating the serialized trace bytes. A Plan is parsed from a
// compact spec string (the pdt-run -faults flag) and consulted by the
// machine and the tracing runtime while the simulation runs; because the
// simulation kernel is cooperatively scheduled, consumption order — and
// therefore the whole faulty execution — is reproducible for a given
// spec.
//
// ServicePlan (service.go) disturbs the analysis daemon: its disk tier,
// job journal, job phases and peer calls. No flag sets one; the chaos
// tests build it as a struct literal of rules.
//
// Plan's spec grammar: comma-separated directives, fields separated by
// colons.
//
//	seed:N                       RNG seed for rand offsets (default 1)
//	kill:CYCLE                   stop the whole machine at CYCLE
//	stall:SPE:CYCLE:EXTRA[:N]    stall flush DMAs of SPE issued at or
//	                             after CYCLE by EXTRA cycles, N times
//	                             (default 1); SPE may be * for any
//	failflush:SPE:CYCLE[:N]      fail N flush attempts of SPE at or
//	                             after CYCLE (default 1); SPE may be *
//	corrupt:OFF[:XOR]            flip trace byte at OFF (or "rand") with
//	                             XOR mask (default 0xFF, or "rand")
//	truncate:BYTES               cut BYTES (or "rand") off the trace tail
//
// Example: -faults 'seed:7,kill:250000,stall:0:0:4000:2,corrupt:rand'
//
// A Plan carries consumption state and must not be shared between
// concurrent runs; parse one plan per run.
package faults

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// AnySPE matches every SPE in a stall or failflush rule (spelled * in
// specs).
const AnySPE = -1

// StallRule delays flush DMAs of one SPE (or AnySPE) issued at or after
// cycle After by Extra cycles, Count times.
type StallRule struct {
	SPE   int
	After uint64
	Extra uint64
	Count int
	used  int
}

// FailRule makes flush attempts of one SPE (or AnySPE) at or after cycle
// After fail, Count times. Each retry of the same flush consumes one
// failure, so Count interacts directly with the runtime's retry bound.
type FailRule struct {
	SPE   int
	After uint64
	Count int
	used  int
}

// CorruptRule flips one byte of the serialized trace. RandomOff/RandomXOR
// draw the offset/mask from the plan's seeded RNG at MangleTrace time.
type CorruptRule struct {
	Offset    int
	XOR       byte
	RandomOff bool
	RandomXOR bool
}

// Plan is a parsed fault-injection plan. The zero value injects nothing.
type Plan struct {
	Seed     uint64
	KillAt   uint64
	HasKill  bool
	Stalls   []StallRule
	Fails    []FailRule
	Corrupts []CorruptRule
	// TruncateBytes cuts the trace tail; -1 draws a random cut from the
	// seeded RNG at MangleTrace time.
	TruncateBytes int

	rng *rand.Rand
}

// Parse builds a Plan from a spec string; see the package comment for the
// grammar. An empty spec yields an empty plan.
func Parse(spec string) (*Plan, error) {
	p := &Plan{Seed: 1}
	for _, dir := range strings.Split(spec, ",") {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		fields := strings.Split(dir, ":")
		name, args := fields[0], fields[1:]
		var err error
		switch name {
		case "seed":
			err = p.parseSeed(args)
		case "kill":
			err = p.parseKill(args)
		case "stall":
			err = p.parseStall(args)
		case "failflush":
			err = p.parseFail(args)
		case "corrupt":
			err = p.parseCorrupt(args)
		case "truncate":
			err = p.parseTruncate(args)
		default:
			err = fmt.Errorf("unknown directive %q", name)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: %q: %w", dir, err)
		}
	}
	p.rng = rand.New(rand.NewSource(int64(p.Seed)))
	return p, nil
}

func argCount(args []string, min, max int) error {
	if len(args) < min || len(args) > max {
		return fmt.Errorf("want %d-%d arguments, got %d", min, max, len(args))
	}
	return nil
}

func parseU64(s, what string) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", what, s)
	}
	return v, nil
}

func parseSPE(s string) (int, error) {
	if s == "*" {
		return AnySPE, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad SPE %q (index or *)", s)
	}
	return v, nil
}

func (p *Plan) parseSeed(args []string) error {
	if err := argCount(args, 1, 1); err != nil {
		return err
	}
	v, err := parseU64(args[0], "seed")
	if err != nil {
		return err
	}
	p.Seed = v
	return nil
}

func (p *Plan) parseKill(args []string) error {
	if err := argCount(args, 1, 1); err != nil {
		return err
	}
	v, err := parseU64(args[0], "cycle")
	if err != nil {
		return err
	}
	p.KillAt, p.HasKill = v, true
	return nil
}

func (p *Plan) parseStall(args []string) error {
	if err := argCount(args, 3, 4); err != nil {
		return err
	}
	spe, err := parseSPE(args[0])
	if err != nil {
		return err
	}
	after, err := parseU64(args[1], "cycle")
	if err != nil {
		return err
	}
	extra, err := parseU64(args[2], "stall cycles")
	if err != nil {
		return err
	}
	r := StallRule{SPE: spe, After: after, Extra: extra, Count: 1}
	if len(args) == 4 {
		n, err := parseU64(args[3], "count")
		if err != nil {
			return err
		}
		r.Count = int(n)
	}
	p.Stalls = append(p.Stalls, r)
	return nil
}

func (p *Plan) parseFail(args []string) error {
	if err := argCount(args, 2, 3); err != nil {
		return err
	}
	spe, err := parseSPE(args[0])
	if err != nil {
		return err
	}
	after, err := parseU64(args[1], "cycle")
	if err != nil {
		return err
	}
	r := FailRule{SPE: spe, After: after, Count: 1}
	if len(args) == 3 {
		n, err := parseU64(args[2], "count")
		if err != nil {
			return err
		}
		r.Count = int(n)
	}
	p.Fails = append(p.Fails, r)
	return nil
}

func (p *Plan) parseCorrupt(args []string) error {
	if err := argCount(args, 1, 2); err != nil {
		return err
	}
	r := CorruptRule{XOR: 0xFF}
	if args[0] == "rand" {
		r.RandomOff = true
	} else {
		v, err := parseU64(args[0], "offset")
		if err != nil {
			return err
		}
		r.Offset = int(v)
	}
	if len(args) == 2 {
		if args[1] == "rand" {
			r.RandomXOR = true
		} else {
			v, err := strconv.ParseUint(args[1], 0, 8)
			if err != nil || v == 0 {
				return fmt.Errorf("bad xor mask %q (1-255 or rand)", args[1])
			}
			r.XOR = byte(v)
		}
	}
	p.Corrupts = append(p.Corrupts, r)
	return nil
}

func (p *Plan) parseTruncate(args []string) error {
	if err := argCount(args, 1, 1); err != nil {
		return err
	}
	if args[0] == "rand" {
		p.TruncateBytes = -1
		return nil
	}
	v, err := parseU64(args[0], "byte count")
	if err != nil {
		return err
	}
	p.TruncateBytes = int(v)
	return nil
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (!p.HasKill && len(p.Stalls) == 0 && len(p.Fails) == 0 &&
		len(p.Corrupts) == 0 && p.TruncateBytes == 0)
}

// Kill returns the machine-kill cycle, if any.
func (p *Plan) Kill() (cycle uint64, ok bool) {
	if p == nil {
		return 0, false
	}
	return p.KillAt, p.HasKill
}

// FlushStall returns the extra cycles a flush DMA of the given SPE issued
// at cycle now must stall, consuming matching rules. Zero means no stall.
func (p *Plan) FlushStall(spe int, now uint64) uint64 {
	if p == nil {
		return 0
	}
	var extra uint64
	for i := range p.Stalls {
		r := &p.Stalls[i]
		if r.used < r.Count && (r.SPE == AnySPE || r.SPE == spe) && now >= r.After {
			r.used++
			extra += r.Extra
		}
	}
	return extra
}

// FlushFail reports whether a flush attempt of the given SPE at cycle now
// fails, consuming one matching failure.
func (p *Plan) FlushFail(spe int, now uint64) bool {
	if p == nil {
		return false
	}
	for i := range p.Fails {
		r := &p.Fails[i]
		if r.used < r.Count && (r.SPE == AnySPE || r.SPE == spe) && now >= r.After {
			r.used++
			return true
		}
	}
	return false
}

// MangleTrace applies the corrupt/truncate directives to a copy of the
// serialized trace, returning the mangled bytes and a note per mutation
// applied (for matching against a doctor report).
func (p *Plan) MangleTrace(data []byte) ([]byte, []string) {
	if p == nil || (len(p.Corrupts) == 0 && p.TruncateBytes == 0) {
		return data, nil
	}
	out := append([]byte(nil), data...)
	var notes []string
	for _, r := range p.Corrupts {
		if len(out) == 0 {
			break
		}
		off, xor := r.Offset, r.XOR
		if r.RandomOff {
			off = p.rng.Intn(len(out))
		}
		if r.RandomXOR {
			xor = byte(1 + p.rng.Intn(255))
		}
		if off >= len(out) {
			off = len(out) - 1
		}
		out[off] ^= xor
		notes = append(notes, fmt.Sprintf("corrupted byte at offset %d (xor %#02x)", off, xor))
	}
	if p.TruncateBytes != 0 {
		cut := p.TruncateBytes
		if cut < 0 {
			cut = p.rng.Intn(len(out) + 1)
		}
		if cut > len(out) {
			cut = len(out)
		}
		out = out[:len(out)-cut]
		notes = append(notes, fmt.Sprintf("truncated %d bytes off the tail", cut))
	}
	return out, notes
}
