//go:build smoke

package integration

// Bounded-RSS streaming smoke (`make stream-smoke`): synthesize a
// ~100 MB trace on disk — more than 10× the stream window — and load it
// through the incremental StreamLoader under a hard runtime memory
// limit, asserting the live heap never grows past twice the window and
// the load allocates at most three windows and a MiB over its run. The
// batch loader would hold every decoded event at once (gigabytes of
// columns for this volume); the stream loader must stay flat no matter
// how long the trace gets.

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// buildBigTrace writes a structurally valid multi-run trace of roughly
// wantBytes to path, returning the record count. Chunks alternate over
// the SPEs, several chunks per run, with monotonic per-run clocks —
// the shape a real long run flushes.
func buildBigTrace(tb testing.TB, path string, wantBytes int64) int64 {
	tb.Helper()
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)

	const spes = 8
	w, err := traceio.NewWriter(bw, traceio.Header{
		Version: traceio.Version, NumSPEs: spes, TimebaseDiv: 40, ClockHz: 3_200_000_000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	meta := &traceio.Meta{Workload: "stream-smoke"}
	for s := 0; s < spes; s++ {
		meta.Anchors = append(meta.Anchors, traceio.Anchor{
			SPE: s, Timebase: uint64(100 + s), Loaded: 0xFFFFFFFF, Program: "big",
		})
	}
	if err := w.WriteMeta(meta); err != nil {
		tb.Fatal(err)
	}

	var (
		written int64
		records int64
		clock   [spes]uint64
		data    []byte
	)
	const perChunk = 8192
	for core := 0; written < wantBytes; core = (core + 1) % spes {
		data = data[:0]
		for i := 0; i < perChunk; i++ {
			clock[core] += uint64(10 + i%7)
			r := event.Record{ID: event.SPEMFCGet, Core: uint8(core), Flags: event.FlagDecrTime,
				Time: clock[core], Args: []uint64{0, 64, 128, uint64(i % 16)}}
			var err error
			data, err = r.AppendTo(data)
			if err != nil {
				tb.Fatal(err)
			}
		}
		if err := w.WriteChunk(traceio.Chunk{
			Core: uint8(core), AnchorIdx: uint16(core), Data: data,
		}); err != nil {
			tb.Fatal(err)
		}
		written += int64(len(data))
		records += perChunk
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return records
}

func TestSmokeStreamBoundedRSS(t *testing.T) {
	const window = 4 << 20       // the benchmark's analyze_stream window
	const traceBytes = 100 << 20 // >10x the window

	path := filepath.Join(t.TempDir(), "big.pdt")
	records := buildBigTrace(t, path, traceBytes)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("trace: %d bytes, %d records", fi.Size(), records)
	if fi.Size() < 10*window {
		t.Fatalf("trace %d bytes is under 10x the %d-byte window; not a bounded-RSS test", fi.Size(), window)
	}

	// Settle the heap, then hold the runtime to baseline + 2x window. If
	// the loader's live set outgrew that, HeapAlloc would be forced past
	// the ceiling no matter how hard the GC runs.
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	ceiling := int64(base.HeapAlloc) + 2*window
	prev := debug.SetMemoryLimit(ceiling)
	defer debug.SetMemoryLimit(prev)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l := analyzer.NewStreamLoader(analyzer.StreamOptions{
		Limits: analyzer.Limits{StreamWindowBytes: window},
	})
	buf := make([]byte, 1<<20)
	var peak uint64
	for i := 0; ; i++ {
		n, rerr := f.Read(buf)
		if n > 0 {
			if _, werr := l.Write(buf[:n]); werr != nil {
				t.Fatal(werr)
			}
		}
		if i%8 == 0 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
		if rerr != nil {
			break
		}
	}
	res, err := l.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("stream not complete")
	}
	if res.Events != records {
		t.Fatalf("events = %d, want %d", res.Events, records)
	}
	if res.Summary == nil || len(res.Summary.Runs) != 8 {
		t.Fatalf("summary runs = %+v, want 8 runs", res.Summary)
	}

	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	growth := int64(peak) - int64(base.HeapAlloc)
	alloc := int64(end.TotalAlloc - base.TotalAlloc)
	t.Logf("heap: baseline %d, peak %d, growth %d; allocated %d (window %d)", base.HeapAlloc, peak, growth, alloc, window)
	if growth > 2*window {
		t.Fatalf("heap grew %d bytes streaming a %d-byte trace; want < 2x the %d-byte window",
			growth, fi.Size(), window)
	}
	// What the load allocates is bounded by the window too: merged pieces
	// hand their buffers to the pieces that follow.
	if alloc > 3*window+1<<20 {
		t.Fatalf("streaming a %d-byte trace allocated %d bytes; want at most 3x the %d-byte window plus 1 MiB",
			fi.Size(), alloc, window)
	}
}
