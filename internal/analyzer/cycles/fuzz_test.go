package cycles_test

// FuzzCycles drives mutated/salvaged trace images through cycle
// detection: flip, insert, delete, or truncate a structurally valid
// periodic trace (the FuzzSalvage operation set), salvage whatever is
// recoverable, and assert detection never panics and every structural
// invariant checkRun pins (stats ordering, cycle containment, phase
// partition) still holds.

import (
	"bytes"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cycles"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// buildPeriodicTrace writes a valid two-core trace image whose record
// stream repeats a get/wait/put pattern eight times per core, so
// mutations land on a trace the detector would otherwise segment
// cleanly into eight cycles.
func buildPeriodicTrace(tb testing.TB) []byte {
	tb.Helper()
	var out bytes.Buffer
	w, err := traceio.NewWriter(&out, traceio.Header{
		Version: traceio.Version, NumSPEs: 8, TimebaseDiv: 40, ClockHz: 3_200_000_000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.WriteMeta(&traceio.Meta{
		Workload: "fuzz",
		Anchors: []traceio.Anchor{
			{SPE: 0, Timebase: 100, Loaded: 0xFFFFFFFF, Program: "p"},
			{SPE: 1, Timebase: 120, Loaded: 0xFFFFFFFF, Program: "p"},
		},
	}); err != nil {
		tb.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		var data []byte
		add := func(id event.ID, tm uint64, args ...uint64) {
			r := event.Record{ID: id, Core: uint8(c), Flags: event.FlagDecrTime, Time: tm, Args: args}
			data, err = r.AppendTo(data)
			if err != nil {
				tb.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			t := uint64(i * 100)
			add(event.SPEMFCGet, t, 1, 0x1000, 0x2000, 256)
			add(event.SPEWaitTagEnter, t+10, 1<<1)
			add(event.SPEWaitTagExit, t+40, 1<<1)
			add(event.SPEMFCPut, t+70, 1, 0x1000, 0x2000, 256)
		}
		if err := w.WriteChunk(traceio.Chunk{Core: uint8(c), AnchorIdx: uint16(c), Data: data}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

func FuzzCycles(f *testing.F) {
	f.Add(uint32(0), uint8(0), uint8(0x5A), uint16(0))
	f.Add(uint32(40), uint8(1), uint8(0xC5), uint16(0))
	f.Add(uint32(80), uint8(2), uint8(0), uint16(0))
	f.Add(uint32(120), uint8(0), uint8(0xFF), uint16(60))
	f.Add(uint32(0), uint8(3), uint8(0), uint16(11))

	f.Fuzz(func(t *testing.T, pos uint32, op, val uint8, cut uint16) {
		valid := buildPeriodicTrace(t)
		data := append([]byte(nil), valid...)
		p := int(pos) % len(data)
		switch op % 4 {
		case 0: // flip
			data[p] ^= val | 1
		case 1: // insert
			data = append(data[:p], append([]byte{val}, data[p:]...)...)
		case 2: // delete
			data = append(data[:p], data[p+1:]...)
		case 3: // truncate from the end
			n := int(cut) % (len(data) + 1)
			data = data[:len(data)-n]
		}
		if int(cut) > 0 && op%4 != 3 {
			n := int(cut) % (len(data) + 1)
			data = data[:len(data)-n]
		}

		d := analyzer.DoctorData(data)
		if d == nil || d.Trace == nil {
			return // nothing recoverable; no trace to analyze
		}
		tr := d.Trace

		rep := cycles.Detect(tr, cycles.Options{})
		total := 0
		for _, run := range rep.Runs {
			checkRun(t, run)
			total += len(run.Cycles)
		}
		if rep.TotalCycles != total {
			t.Errorf("TotalCycles = %d, sum over runs = %d", rep.TotalCycles, total)
		}
		var buf bytes.Buffer
		rep.Write(&buf)
		if err := rep.WriteJSON(&buf); err != nil {
			t.Errorf("WriteJSON on salvaged input: %v", err)
		}
	})
}
