package traceio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"github.com/celltrace/pdt/internal/core/event"
)

// hostileDeclaredLength builds a ~1 KiB file whose single chunk header
// declares a 2 GiB data length: the classic "length field from hell" that
// must never drive a length-proportional allocation.
func hostileDeclaredLength(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	w, err := NewWriter(&out, Header{Version: Version, NumSPEs: 8, TimebaseDiv: 40, ClockHz: 3_200_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMeta(&Meta{Workload: "hostile"}); err != nil {
		t.Fatal(err)
	}
	hdr := []byte{ChunkMagic, event.CorePPE}
	hdr = binary.LittleEndian.AppendUint16(hdr, NoAnchor)
	hdr = binary.LittleEndian.AppendUint32(hdr, 2<<30) // declares 2 GiB
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)     // bogus chunk CRC
	out.Write(hdr)
	out.Write(make([]byte, 1024)) // only 1 KiB actually present
	return out.Bytes()
}

// TestParseHostileDeclaredLengthNoAllocation is the regression test for
// the declared-length cap: parsing a 1 KiB file whose chunk header
// declares 2 GiB must complete (as a truncated trace) while allocating
// nowhere near the declared size — the chunk data is sliced from the
// input, capped at min(declared, remaining).
func TestParseHostileDeclaredLengthNoAllocation(t *testing.T) {
	data := hostileDeclaredLength(t)
	if len(data) > 2048 {
		t.Fatalf("hostile file unexpectedly large: %d bytes", len(data))
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := Parse(data)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !f.Truncated {
		t.Fatal("a 2 GiB declaration in a 1 KiB file must parse as truncated")
	}
	// TotalAlloc is monotonic; the delta bounds everything Parse touched.
	// 1 MiB is three orders of magnitude under the declared length while
	// leaving room for test-harness noise.
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
		t.Fatalf("Parse of 1 KiB hostile file allocated %d bytes", delta)
	}

	// Decoding the (empty) chunks must be equally indifferent.
	for _, c := range f.Chunks {
		if _, _, err := DecodeChunk(c); err != nil {
			t.Fatalf("DecodeChunk: %v", err)
		}
	}
}

// TestParseChunkLimitRejected: with MaxChunkBytes set, the same hostile
// header is rejected up front with the typed error.
func TestParseChunkLimitRejected(t *testing.T) {
	data := hostileDeclaredLength(t)
	_, err := ParseContext(context.Background(), data, Limits{MaxChunkBytes: 16 << 20})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("want ErrLimitExceeded, got %v", err)
	}
}

// TestParseMetaLimitRejected: a metadata length over MaxMetaBytes is
// rejected before the XML decoder runs.
func TestParseMetaLimitRejected(t *testing.T) {
	var out bytes.Buffer
	w, err := NewWriter(&out, Header{Version: Version, NumSPEs: 8, TimebaseDiv: 40})
	if err != nil {
		t.Fatal(err)
	}
	_ = w // header only; append a huge declared metadata length by hand
	data := out.Bytes()
	data = binary.LittleEndian.AppendUint32(data, 1<<30)
	data = append(data, make([]byte, 64)...)

	_, err = ParseContext(context.Background(), data, Limits{MaxMetaBytes: 4 << 20})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("want ErrLimitExceeded, got %v", err)
	}
	// Without limits the same input is merely truncated, not an error.
	f, err := Parse(data)
	if err != nil || !f.Truncated {
		t.Fatalf("unlimited parse: err=%v truncated=%v", err, f.Truncated)
	}
}

// TestFileSizeLimit covers both the in-memory and streaming entry points.
func TestFileSizeLimit(t *testing.T) {
	data := make([]byte, 4096)
	lim := Limits{MaxFileBytes: 1024}
	if _, err := ParseContext(context.Background(), data, lim); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("ParseContext: want ErrLimitExceeded, got %v", err)
	}
	if _, err := ReadContext(context.Background(), bytes.NewReader(data), lim); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("ReadContext: want ErrLimitExceeded, got %v", err)
	}
}

// TestDecodeChunkRecordCap: the per-chunk record cap of the record loop
// every loader frames a chunk with trips with the typed error, and the
// offset slice is sized by the cap rather than the chunk size.
func TestDecodeChunkRecordCap(t *testing.T) {
	var data []byte
	var err error
	for i := 0; i < 100; i++ {
		r := event.Record{ID: event.SPEMFCGet, Core: 0, Flags: event.FlagDecrTime,
			Time: uint64(i), Args: []uint64{0, 64, 128, 1}}
		data, err = r.AppendTo(data)
		if err != nil {
			t.Fatal(err)
		}
	}
	offs, _, err := FrameRecords(context.Background(), 0, data, nil, 0, Limits{MaxRecords: 10})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("want ErrLimitExceeded, got %v (%d records)", err, len(offs))
	}
	if len(offs) > 11 || cap(offs) > 16 {
		t.Fatalf("framed %d records (room for %d) past a cap of 10", len(offs), cap(offs))
	}
}

// TestParseSalvageCancelled: an already-cancelled context stops both
// scanners with ctx.Err().
func TestParseSalvageCancelled(t *testing.T) {
	data := hostileDeclaredLength(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ParseContext(ctx, data, Limits{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ParseContext: want context.Canceled, got %v", err)
	}
	f, rep, err := SalvageContext(ctx, data)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SalvageContext: want context.Canceled, got %v", err)
	}
	if f != nil || rep == nil {
		t.Fatalf("cancelled salvage: file=%v report=%v", f, rep)
	}
}
