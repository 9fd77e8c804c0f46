package faults

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseFull(t *testing.T) {
	p, err := Parse("seed:7,kill:250000,stall:0:5000:4000:2,failflush:*:0:3,corrupt:100:0x5a,corrupt:rand:rand,truncate:64")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || !p.HasKill || p.KillAt != 250000 {
		t.Fatalf("plan = %+v", p)
	}
	if len(p.Stalls) != 1 || p.Stalls[0] != (StallRule{SPE: 0, After: 5000, Extra: 4000, Count: 2}) {
		t.Fatalf("stalls = %+v", p.Stalls)
	}
	if len(p.Fails) != 1 || p.Fails[0] != (FailRule{SPE: AnySPE, After: 0, Count: 3}) {
		t.Fatalf("fails = %+v", p.Fails)
	}
	if len(p.Corrupts) != 2 || p.Corrupts[0].Offset != 100 || p.Corrupts[0].XOR != 0x5A {
		t.Fatalf("corrupts = %+v", p.Corrupts)
	}
	if !p.Corrupts[1].RandomOff || !p.Corrupts[1].RandomXOR {
		t.Fatalf("corrupts[1] = %+v", p.Corrupts[1])
	}
	if p.TruncateBytes != 64 {
		t.Fatalf("truncate = %d", p.TruncateBytes)
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	p, err := Parse("")
	if err != nil || !p.Empty() {
		t.Fatalf("empty spec: %v, %+v", err, p)
	}
	for _, bad := range []string{
		"bogus:1", "kill", "kill:abc", "stall:0:1", "stall:x:1:2",
		"failflush:0", "corrupt:abc", "corrupt:1:0", "truncate:x", "seed:-1",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestStringRoundTrip: a spec of every directive kind parses to the
// plan it spells, field by field.
func TestStringRoundTrip(t *testing.T) {
	p, err := Parse("seed:7,kill:250000,stall:0:5000:4000:2,failflush:*:0:3,corrupt:100:0x5a,truncate:rand")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || !p.HasKill || p.KillAt != 250000 {
		t.Fatalf("seed/kill = %d, %v, %d", p.Seed, p.HasKill, p.KillAt)
	}
	if len(p.Stalls) != 1 || p.Stalls[0] != (StallRule{SPE: 0, After: 5000, Extra: 4000, Count: 2}) {
		t.Fatalf("stalls = %+v", p.Stalls)
	}
	if len(p.Fails) != 1 || p.Fails[0] != (FailRule{SPE: AnySPE, After: 0, Count: 3}) {
		t.Fatalf("fails = %+v", p.Fails)
	}
	if len(p.Corrupts) != 1 || p.Corrupts[0] != (CorruptRule{Offset: 100, XOR: 0x5A}) {
		t.Fatalf("corrupts = %+v", p.Corrupts)
	}
	if p.TruncateBytes != -1 {
		t.Fatalf("truncate = %d, want -1 (rand)", p.TruncateBytes)
	}
}

func TestFlushStallConsumption(t *testing.T) {
	p, err := Parse("stall:1:1000:500:2")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.FlushStall(0, 2000); got != 0 {
		t.Fatalf("wrong SPE stalled %d cycles", got)
	}
	if got := p.FlushStall(1, 500); got != 0 {
		t.Fatalf("stalled before After: %d", got)
	}
	for i := 0; i < 2; i++ {
		if got := p.FlushStall(1, 1000+uint64(i)); got != 500 {
			t.Fatalf("use %d: stall = %d, want 500", i, got)
		}
	}
	if got := p.FlushStall(1, 9999); got != 0 {
		t.Fatalf("count exhausted but stalled %d", got)
	}
}

func TestFlushFailConsumption(t *testing.T) {
	p, err := Parse("failflush:*:100:2")
	if err != nil {
		t.Fatal(err)
	}
	if p.FlushFail(3, 50) {
		t.Fatal("failed before After cycle")
	}
	if !p.FlushFail(3, 100) || !p.FlushFail(5, 200) {
		t.Fatal("expected two failures")
	}
	if p.FlushFail(3, 300) {
		t.Fatal("count exhausted but still failing")
	}
}

func TestMangleTraceDeterministic(t *testing.T) {
	base := bytes.Repeat([]byte{0xAA}, 400)
	out1, notes1 := mustPlan(t, "seed:9,corrupt:rand:rand,truncate:rand").MangleTrace(base)
	out2, notes2 := mustPlan(t, "seed:9,corrupt:rand:rand,truncate:rand").MangleTrace(base)
	if !bytes.Equal(out1, out2) || strings.Join(notes1, ";") != strings.Join(notes2, ";") {
		t.Fatalf("same seed diverged:\n%v\n%v", notes1, notes2)
	}
	out3, _ := mustPlan(t, "seed:10,corrupt:rand:rand,truncate:rand").MangleTrace(base)
	if bytes.Equal(out1, out3) {
		t.Fatal("different seeds produced identical mangling")
	}
	if bytes.Equal(base, out1[:len(out1)]) && len(out1) == len(base) {
		t.Fatal("mangle changed nothing")
	}
	// The input must never be modified in place.
	for _, b := range base {
		if b != 0xAA {
			t.Fatal("MangleTrace modified its input")
		}
	}
}

func TestMangleTraceFixedOffsets(t *testing.T) {
	base := make([]byte, 100)
	out, notes := mustPlan(t, "corrupt:10:0x01,truncate:20").MangleTrace(base)
	if len(out) != 80 {
		t.Fatalf("len = %d, want 80", len(out))
	}
	if out[10] != 0x01 {
		t.Fatalf("byte 10 = %#x", out[10])
	}
	if len(notes) != 2 {
		t.Fatalf("notes = %v", notes)
	}
}

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if !p.Empty() {
		t.Fatal("nil plan not empty")
	}
	if _, ok := p.Kill(); ok {
		t.Fatal("nil plan kills")
	}
	if p.FlushStall(0, 0) != 0 || p.FlushFail(0, 0) {
		t.Fatal("nil plan injects")
	}
	data := []byte{1, 2, 3}
	out, notes := p.MangleTrace(data)
	if !bytes.Equal(out, data) || notes != nil {
		t.Fatal("nil plan mangles")
	}
}

func mustPlan(t *testing.T, spec string) *Plan {
	t.Helper()
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
