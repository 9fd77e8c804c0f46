package analyzer_test

// Streaming-vs-batch equivalence: every registered workload is traced,
// loaded through the batch pipeline, and streamed through StreamLoader
// under hostile conditions (tiny windows, odd write slicing), asserting
// the incremental kernels reproduce the batch kernels exactly — down to
// the rendered report bytes. Runs under -race in CI, which also
// exercises the Snapshot-vs-Write locking.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/workloads"
)

// traceWorkload runs one workload at its small size under the harness
// and returns its trace bytes.
func traceWorkload(t *testing.T, name string) []byte {
	t.Helper()
	return traceWorkloadWith(t, name, core.DefaultTraceConfig())
}

// batchResults holds everything the batch pipeline derives from a trace.
type batchResults struct {
	tr      *analyzer.Trace
	summary *analyzer.Summary
	profile []analyzer.PairProfile
	gaps    []analyzer.Gap
	tags    []analyzer.TagStats
	minGap  uint64
}

// loadBatch runs the full batch pipeline, including Validate, over raw
// trace bytes.
func loadBatch(t *testing.T, data []byte) *batchResults {
	t.Helper()
	f, err := traceio.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := analyzer.FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	analyzer.Validate(tr)
	b := &batchResults{
		tr:      tr,
		summary: analyzer.Summarize(tr),
		profile: analyzer.Profile(tr),
		tags:    analyzer.TagBreakdown(tr),
		minGap:  analyzer.SuggestGapThreshold(tr),
	}
	b.gaps = analyzer.FindGaps(tr, b.minGap)
	return b
}

// streamIn feeds data to a fresh StreamLoader in writeSize slices and
// finishes it.
func streamIn(t *testing.T, data []byte, writeSize int, opts analyzer.StreamOptions) *analyzer.StreamResult {
	t.Helper()
	l := analyzer.NewStreamLoader(opts)
	for off := 0; off < len(data); off += writeSize {
		end := off + writeSize
		if end > len(data) {
			end = len(data)
		}
		if _, err := l.Write(data[off:end]); err != nil {
			t.Fatalf("Write at offset %d: %v", off, err)
		}
	}
	res, err := l.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if l.Events() != res.Events {
		t.Fatalf("Events() reports %d after Finish, the result holds %d", l.Events(), res.Events)
	}
	return res
}

// assertStreamMatchesBatch compares every kernel output, struct for
// struct and rendered byte for byte.
func assertStreamMatchesBatch(t *testing.T, want *batchResults, got *analyzer.StreamResult) {
	t.Helper()
	if !got.Complete {
		t.Error("stream result not marked Complete on a clean trace")
	}
	if got.Events != int64(want.tr.NumEvents()) {
		t.Errorf("events: stream %d, batch %d", got.Events, want.tr.NumEvents())
	}
	if !reflect.DeepEqual(got.Summary, want.summary) {
		t.Errorf("summary differs:\nstream %+v\nbatch  %+v", got.Summary, want.summary)
	}
	if !reflect.DeepEqual(got.Profile, want.profile) {
		t.Errorf("profile differs:\nstream %+v\nbatch  %+v", got.Profile, want.profile)
	}
	if !reflect.DeepEqual(got.Trace.Confidence, want.tr.Confidence) {
		t.Errorf("confidence differs:\nstream %+v\nbatch  %+v", got.Trace.Confidence, want.tr.Confidence)
	}
	if !reflect.DeepEqual(got.Trace.Issues, want.tr.Issues) {
		t.Errorf("issues differ:\nstream %v\nbatch  %v", got.Trace.Issues, want.tr.Issues)
	}
	if !reflect.DeepEqual(got.Trace.Strings, want.tr.Strings) {
		t.Errorf("strings differ:\nstream %v\nbatch  %v", got.Trace.Strings, want.tr.Strings)
	}
	if got.Trace.Truncated != want.tr.Truncated {
		t.Errorf("truncated: stream %v, batch %v", got.Trace.Truncated, want.tr.Truncated)
	}

	// Byte-identical rendered outputs: the summary report, the JSON
	// export and the profile table.
	var wantBuf, gotBuf bytes.Buffer
	analyzer.Report(want.tr, want.summary, &wantBuf)
	got.Report(&gotBuf)
	if wantBuf.String() != gotBuf.String() {
		t.Errorf("rendered report differs:\n--- batch ---\n%s\n--- stream ---\n%s", wantBuf.String(), gotBuf.String())
	}
	wantBuf.Reset()
	gotBuf.Reset()
	if err := analyzer.WriteJSON(want.tr, want.summary, &wantBuf); err != nil {
		t.Fatal(err)
	}
	if err := analyzer.WriteJSON(got.Trace, got.Summary, &gotBuf); err != nil {
		t.Fatal(err)
	}
	if wantBuf.String() != gotBuf.String() {
		t.Errorf("JSON summary differs:\n--- batch ---\n%s\n--- stream ---\n%s", wantBuf.String(), gotBuf.String())
	}
	wantBuf.Reset()
	gotBuf.Reset()
	analyzer.WriteProfilePairs(want.tr, want.profile, &wantBuf)
	analyzer.WriteProfilePairs(got.Trace, got.Profile, &gotBuf)
	if wantBuf.String() != gotBuf.String() {
		t.Errorf("profile table differs:\n--- batch ---\n%s\n--- stream ---\n%s", wantBuf.String(), gotBuf.String())
	}
}

// TestStreamMatchesBatchAllWorkloads is the headline equivalence suite:
// all workloads, a window small enough to force many segment folds, and
// an odd write size so records split across Write boundaries constantly.
// Every piece buffer is poisoned as it returns for reuse (TestMain), so
// none may be read once its window has merged.
func TestStreamMatchesBatchAllWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			data := traceWorkload(t, name)
			want := loadBatch(t, data)
			got := streamIn(t, data, 977, analyzer.StreamOptions{
				Limits:   analyzer.Limits{StreamWindowBytes: 1 << 14},
				Validate: true,
			})
			assertStreamMatchesBatch(t, want, got)
		})
	}
}

// TestStreamWriteSlicings re-streams one workload under several write
// slicings, including byte-at-a-time, and several window budgets —
// the result must never depend on how the bytes arrive.
func TestStreamWriteSlicings(t *testing.T) {
	data := traceWorkload(t, "synthetic")
	want := loadBatch(t, data)
	for _, tc := range []struct {
		name      string
		writeSize int
		window    int64
	}{
		{"byte-at-a-time", 1, 1 << 12},
		{"tiny-window", 4096, 1 << 10},
		{"page-writes", 4096, 1 << 20},
		{"one-shot", len(data), 0}, // 0 window = default
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := streamIn(t, data, tc.writeSize, analyzer.StreamOptions{
				Limits:   analyzer.Limits{StreamWindowBytes: tc.window},
				Validate: true,
			})
			assertStreamMatchesBatch(t, want, got)
		})
	}
}

// TestStreamMidChunkCuts sweeps window sizes small enough that every
// chunk is cut into many pieces, so the cuts land on every record
// boundary in turn — including the ones around each TRACE_FLUSH record
// and the record whose arrival forced its flush. Pieces are sorted one at
// a time, so a piece cut from a chunk out of stamp order would fold its
// records in the wrong order (one window size does not show it: most
// boundaries are harmless).
func TestStreamMidChunkCuts(t *testing.T) {
	data := traceWorkload(t, "synthetic")
	want := loadBatch(t, data)
	for window := int64(300); window < 12000; window += 97 {
		for _, writeSize := range []int{977, len(data)} {
			got := streamIn(t, data, writeSize, analyzer.StreamOptions{
				Limits:   analyzer.Limits{StreamWindowBytes: window},
				Validate: true,
			})
			if !reflect.DeepEqual(got.Summary, want.summary) || !reflect.DeepEqual(got.Profile, want.profile) ||
				!reflect.DeepEqual(got.Trace.Issues, want.tr.Issues) {
				t.Errorf("window %d, writes of %d: stream results differ from batch", window, writeSize)
			}
		}
	}
}

// TestStreamTruncationMatchesBatch cuts the trace at arbitrary byte
// offsets and asserts the streaming loader lands in the same truncation
// state as batch Parse+FromFile: same summary, same issues, same
// confidence. This covers the drop-the-partial-final-chunk semantics, in
// one window and in 16 KiB windows, which fold several times over but cut
// none of these chunks, so the drop stays exact.
func TestStreamTruncationMatchesBatch(t *testing.T) {
	data := traceWorkload(t, "matmul")
	for _, frac := range []int{30, 55, 80, 95, 99} {
		cut := len(data) * frac / 100
		t.Run(string(rune('0'+frac/10))+string(rune('0'+frac%10))+"pct", func(t *testing.T) {
			trunc := data[:cut]
			f, err := traceio.Parse(trunc)
			if err != nil {
				t.Skipf("batch Parse rejects this cut (%v) — nothing to compare", err)
			}
			tr, err := analyzer.FromFile(f)
			if err != nil {
				t.Skipf("batch load rejects this cut (%v)", err)
			}
			want := &batchResults{
				tr:      tr,
				summary: analyzer.Summarize(tr),
				profile: analyzer.Profile(tr),
				tags:    analyzer.TagBreakdown(tr),
			}
			if !tr.Truncated {
				t.Fatal("expected a truncated batch load")
			}
			for _, window := range []int64{0, 1 << 14} {
				got := streamIn(t, trunc, 977, analyzer.StreamOptions{
					Limits: analyzer.Limits{StreamWindowBytes: window},
				})
				if got.Complete {
					t.Errorf("window %d: stream result marked Complete on truncated input", window)
				}
				if !got.Trace.Truncated {
					t.Errorf("window %d: stream result not marked Truncated", window)
				}
				if !reflect.DeepEqual(got.Summary, want.summary) {
					t.Errorf("window %d: summary differs:\nstream %+v\nbatch  %+v", window, got.Summary, want.summary)
				}
				if !reflect.DeepEqual(got.Profile, want.profile) {
					t.Errorf("window %d: profile differs:\nstream %+v\nbatch  %+v", window, got.Profile, want.profile)
				}
				if !reflect.DeepEqual(got.Trace.Issues, want.tr.Issues) {
					t.Errorf("window %d: issues differ:\nstream %v\nbatch  %v", window, got.Trace.Issues, want.tr.Issues)
				}
				if !reflect.DeepEqual(got.Trace.Confidence, want.tr.Confidence) {
					t.Errorf("window %d: confidence differs:\nstream %+v\nbatch  %+v", window, got.Trace.Confidence, want.tr.Confidence)
				}
			}
		})
	}
}

// TestStreamEveryPrefixMatchesBatch cuts one small trace at every byte
// offset and streams each prefix byte-at-a-time, in 7-byte writes and in
// one write. Whatever batch Parse+FromFile makes of the prefix — an
// error, a truncated load, the complete trace — the stream must make the
// same: identical error text, Header, Meta, Issues, Truncated and event
// count. The default window keeps every chunk in one piece, so the
// drop-the-cut-off-chunk rollback is exact.
func TestStreamEveryPrefixMatchesBatch(t *testing.T) {
	data := buildColFuzzTrace(t)
	for cut := 0; cut <= len(data); cut++ {
		prefix := data[:cut]
		var tr *analyzer.Trace
		f, batchErr := traceio.Parse(prefix)
		if batchErr == nil {
			tr, batchErr = analyzer.FromFile(f)
		}
		for _, writeSize := range []int{1, 7, cut} {
			l := analyzer.NewStreamLoader(analyzer.StreamOptions{})
			var res *analyzer.StreamResult
			var err error
			for off := 0; off < cut && err == nil; off += writeSize {
				_, err = l.Write(prefix[off:min(off+writeSize, cut)])
			}
			if err == nil {
				res, err = l.Finish()
			}
			if batchErr != nil || err != nil {
				if batchErr == nil || err == nil || batchErr.Error() != err.Error() {
					t.Fatalf("cut %d, writes of %d: stream error %v, batch error %v", cut, writeSize, err, batchErr)
				}
				continue
			}
			got := res.Trace
			if got.Header != tr.Header || !reflect.DeepEqual(got.Meta, tr.Meta) {
				t.Fatalf("cut %d, writes of %d: header/meta differ:\nstream %+v %+v\nbatch  %+v %+v",
					cut, writeSize, got.Header, got.Meta, tr.Header, tr.Meta)
			}
			if got.Truncated != tr.Truncated || res.Complete == tr.Truncated {
				t.Fatalf("cut %d, writes of %d: stream truncated=%v complete=%v, batch truncated=%v",
					cut, writeSize, got.Truncated, res.Complete, tr.Truncated)
			}
			if !reflect.DeepEqual(got.Issues, tr.Issues) {
				t.Fatalf("cut %d, writes of %d: issues differ:\nstream %v\nbatch  %v", cut, writeSize, got.Issues, tr.Issues)
			}
			if res.Events != int64(tr.NumEvents()) {
				t.Fatalf("cut %d, writes of %d: stream %d events, batch %d", cut, writeSize, res.Events, tr.NumEvents())
			}
		}
	}
}

// TestStreamSnapshotConcurrent hammers Snapshot from other goroutines
// while the stream is being written — the live-tail access pattern. The
// -race run is the real assertion; the checks here just keep the
// snapshots honest (monotone byte counts, final equality).
func TestStreamSnapshotConcurrent(t *testing.T) {
	data := traceWorkload(t, "julia")
	want := loadBatch(t, data)
	l := analyzer.NewStreamLoader(analyzer.StreamOptions{
		Limits: analyzer.Limits{StreamWindowBytes: 1 << 12},
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastBytes int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := l.Snapshot()
				if snap.Bytes < lastBytes {
					t.Errorf("snapshot bytes went backwards: %d after %d", snap.Bytes, lastBytes)
					return
				}
				lastBytes = snap.Bytes
			}
		}()
	}
	for off := 0; off < len(data); off += 512 {
		end := off + 512
		if end > len(data) {
			end = len(data)
		}
		if _, err := l.Write(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	res, err := l.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Summary, want.summary) {
		t.Errorf("final summary differs from batch after concurrent snapshots")
	}
}

// TestStreamLimits checks the streaming admission controls: cumulative
// file size and the decoded-record budget latch mid-stream.
func TestStreamLimits(t *testing.T) {
	data := traceWorkload(t, "synthetic")
	t.Run("file-bytes", func(t *testing.T) {
		l := analyzer.NewStreamLoader(analyzer.StreamOptions{
			Limits: analyzer.Limits{MaxFileBytes: int64(len(data) / 2)},
		})
		var failed error
		for off := 0; off < len(data) && failed == nil; off += 4096 {
			end := off + 4096
			if end > len(data) {
				end = len(data)
			}
			_, failed = l.Write(data[off:end])
		}
		if failed == nil {
			t.Fatal("expected MaxFileBytes to reject the stream")
		}
		if _, err := l.Finish(); err == nil {
			t.Fatal("Finish after a latched error must fail")
		}
	})
	t.Run("record-budget", func(t *testing.T) {
		l := analyzer.NewStreamLoader(analyzer.StreamOptions{
			Limits: analyzer.Limits{MaxDecodeBytes: 1 << 10},
		})
		var failed error
		for off := 0; off < len(data) && failed == nil; off += 4096 {
			end := off + 4096
			if end > len(data) {
				end = len(data)
			}
			_, failed = l.Write(data[off:end])
		}
		if failed == nil {
			t.Fatal("expected the decode budget to reject the stream")
		}
	})

	// The declared-length and per-chunk caps: the stream must fail with
	// the batch path's exact error, and — fed a byte at a time — no later
	// than the byte that completes the offending declaration, so a
	// declared 4 GB blob is refused before any of it is buffered.
	chunk0 := 27 + int(binary.LittleEndian.Uint32(data[23:27])) // header, metadata length, metadata
	rec4 := chunk0 + 12                                         // end of the first chunk's fourth record
	for i := 0; i < 4; i++ {
		for data[rec4] == 0 {
			rec4++
		}
		rec4 += int(data[rec4])
	}
	for _, tc := range []struct {
		name  string
		lim   analyzer.Limits
		bound int // the stream must have failed once this many bytes are in
	}{
		{"meta-bytes", analyzer.Limits{MaxMetaBytes: 8}, 27},
		{"chunk-bytes", analyzer.Limits{MaxChunkBytes: 16}, chunk0 + 12},
		{"chunk-records", analyzer.Limits{MaxRecords: 3}, rec4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, batchErr := traceio.ParseContext(context.Background(), data, tc.lim)
			if batchErr == nil {
				_, batchErr = analyzer.FromFileContext(context.Background(), f, tc.lim)
			}
			if !errors.Is(batchErr, analyzer.ErrLimitExceeded) {
				t.Fatalf("batch path: want ErrLimitExceeded, got %v", batchErr)
			}
			l := analyzer.NewStreamLoader(analyzer.StreamOptions{Limits: tc.lim})
			var failed error
			n := 0
			for ; n < len(data) && failed == nil; n++ {
				_, failed = l.Write(data[n : n+1])
			}
			if failed == nil || failed.Error() != batchErr.Error() {
				t.Fatalf("stream error %v, batch error %v", failed, batchErr)
			}
			if n > tc.bound {
				t.Fatalf("stream rejected after %d bytes, the declaration is complete at %d", n, tc.bound)
			}
		})
	}
}

// TestStreamHostileDeclaredLengthNoAllocation is the stream's twin of
// traceio's TestParseHostileDeclaredLengthNoAllocation: a 1 KiB image
// whose PPE chunk declares 2 GiB and delivers 1 KiB of records. At the
// default window the loader frames those records as they arrive, so its
// piece buffers grow from the bytes present; sized from the declared
// length they would allocate gigabytes, and any sizing from it shows
// here. The stream ends inside the chunk, so the load is truncated and
// drops the chunk, as batch Parse does.
func TestStreamHostileDeclaredLengthNoAllocation(t *testing.T) {
	var img bytes.Buffer
	w, err := traceio.NewWriter(&img, traceio.Header{
		Version: traceio.Version, NumSPEs: 8, TimebaseDiv: 40, ClockHz: 3_200_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMeta(&traceio.Meta{Workload: "hostile"}); err != nil {
		t.Fatal(err)
	}
	hdr := []byte{traceio.ChunkMagic, event.CorePPE}
	hdr = binary.LittleEndian.AppendUint16(hdr, traceio.NoAnchor)
	hdr = binary.LittleEndian.AppendUint32(hdr, 2<<30) // declares 2 GiB
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)     // bogus chunk CRC
	img.Write(hdr)
	var recs []byte
	for i := 0; len(recs) < 1024-32; i++ {
		r := event.Record{ID: event.PPESPEStart, Core: event.CorePPE, Time: uint64(i), Args: []uint64{0, 1}}
		if recs, err = r.AppendTo(recs); err != nil {
			t.Fatal(err)
		}
	}
	img.Write(recs)
	data := img.Bytes()
	if len(data) > 2048 {
		t.Fatalf("hostile image unexpectedly large: %d bytes", len(data))
	}

	var res *analyzer.StreamResult
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l := analyzer.NewStreamLoader(analyzer.StreamOptions{})
	if _, err := l.Write(data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	res, err = l.Finish()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !res.Trace.Truncated || res.Events != 0 {
		t.Fatalf("truncated %v with %d events; want the cut-off chunk dropped", res.Trace.Truncated, res.Events)
	}
	t.Logf("%d-byte image: %d bytes allocated", len(data), after.TotalAlloc-before.TotalAlloc)
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
		t.Fatalf("streaming a %d-byte image whose chunk declares 2 GiB allocated %d bytes", len(data), delta)
	}
}
