package analyzer_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/harness"
	"github.com/celltrace/pdt/internal/workloads"
)

// liveWorkload runs one workload with a live mirror attached and returns
// (live stream bytes, sealed trace bytes).
func liveWorkload(t *testing.T, name string) ([]byte, []byte) {
	t.Helper()
	cfg := core.DefaultTraceConfig()
	livePath := filepath.Join(t.TempDir(), "live.pdt")
	res, err := harness.Run(harness.Spec{
		Workload: name, Params: workloads.Small(name), Trace: &cfg, LivePath: livePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	live, err := os.ReadFile(livePath)
	if err != nil {
		t.Fatal(err)
	}
	return live, res.TraceBytes
}

// TestLiveTailRoundTrip checks the whole live-tail contract: the mirror
// a run writes while executing is a well-formed PDT stream whose batch
// load resolves the in-band LiveAnchor records, whose streaming load is
// kernel-for-kernel identical to that batch load — in one window, and in
// 16 KiB windows whose piece buffers are poisoned as they return for
// reuse — and whose per-run analysis agrees with the sealed file the same
// run produced.
func TestLiveTailRoundTrip(t *testing.T) {
	for _, name := range []string{"pipeline", "matmul"} {
		t.Run(name, func(t *testing.T) {
			live, sealed := liveWorkload(t, name)

			// The live stream must be sealed (footer) and carry no
			// up-front anchors: they arrive in-band.
			f, err := traceio.Parse(live)
			if err != nil {
				t.Fatalf("live stream does not parse: %v", err)
			}
			if f.Truncated {
				t.Fatal("cleanly closed live stream parsed as truncated")
			}
			if len(f.Meta.Anchors) != 0 {
				t.Fatalf("live metadata carries %d anchors, want 0 (in-band)", len(f.Meta.Anchors))
			}

			// Batch load resolves anchors from LiveAnchor records, on
			// both the parallel and the serial reference path.
			liveBatch := loadBatch(t, live)
			anchors := len(liveBatch.tr.Meta.Anchors)
			if anchors == 0 {
				t.Fatal("batch load rebuilt no anchors from the live stream")
			}
			fs, err := traceio.Parse(live)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := analyzer.FromFileSerial(fs)
			if err != nil {
				t.Fatalf("serial load of live stream: %v", err)
			}
			if len(serial.Meta.Anchors) != anchors {
				t.Fatalf("serial load rebuilt %d anchors, parallel %d", len(serial.Meta.Anchors), anchors)
			}

			// Streaming the live stream == batch-loading it.
			for _, window := range []int64{0, 1 << 14} {
				sr := streamIn(t, live, 977, analyzer.StreamOptions{
					Limits:   analyzer.Limits{StreamWindowBytes: window},
					Validate: true,
				})
				assertStreamMatchesBatch(t, liveBatch, sr)
			}

			// The live view agrees with the sealed file on everything
			// per-run: the only extra records in the stream are the
			// in-band anchors themselves.
			sealedBatch := loadBatch(t, sealed)
			if n := liveBatch.summary.EventCount[event.LiveAnchor]; n != anchors {
				t.Errorf("live stream has %d LIVE_ANCHOR records, want %d", n, anchors)
			}
			if sealedBatch.summary.EventCount[event.LiveAnchor] != 0 {
				t.Error("sealed file contains LIVE_ANCHOR records; they belong to the live stream only")
			}
			if !reflect.DeepEqual(liveBatch.summary.Runs, sealedBatch.summary.Runs) {
				t.Errorf("per-run summaries differ:\nlive   %+v\nsealed %+v",
					liveBatch.summary.Runs, sealedBatch.summary.Runs)
			}
			if !reflect.DeepEqual(liveBatch.summary.DMA, sealedBatch.summary.DMA) {
				t.Errorf("DMA summaries differ:\nlive   %+v\nsealed %+v",
					liveBatch.summary.DMA, sealedBatch.summary.DMA)
			}
			if !reflect.DeepEqual(liveBatch.summary.Mbox, sealedBatch.summary.Mbox) {
				t.Errorf("mailbox summaries differ:\nlive   %+v\nsealed %+v",
					liveBatch.summary.Mbox, sealedBatch.summary.Mbox)
			}
			if !reflect.DeepEqual(liveBatch.profile, sealedBatch.profile) {
				t.Errorf("profiles differ:\nlive   %+v\nsealed %+v",
					liveBatch.profile, sealedBatch.profile)
			}
			if !reflect.DeepEqual(liveBatch.tags, sealedBatch.tags) {
				t.Errorf("tag breakdowns differ:\nlive   %+v\nsealed %+v",
					liveBatch.tags, sealedBatch.tags)
			}
			gaps := analyzer.FindGaps(liveBatch.tr, sealedBatch.minGap)
			if !reflect.DeepEqual(gaps, sealedBatch.gaps) {
				t.Errorf("gaps differ at the sealed threshold:\nlive   %+v\nsealed %+v",
					gaps, sealedBatch.gaps)
			}
		})
	}
}

// TestLiveTailTruncated cuts a live stream off mid-file — the shape an
// interrupted pdt-run leaves — and checks that both loaders tolerate it
// and still agree with each other: the stream in one window and one
// Write, and in 16 KiB windows of 977-byte Writes whose piece buffers are
// poisoned as they return for reuse.
func TestLiveTailTruncated(t *testing.T) {
	live, _ := liveWorkload(t, "pipeline")
	for _, cut := range []int{len(live) - 8, len(live) * 3 / 5} {
		data := live[:cut]
		f, err := traceio.Parse(data)
		if err != nil {
			t.Fatalf("cut at %d: parse: %v", cut, err)
		}
		if !f.Truncated {
			t.Fatalf("cut at %d: not flagged truncated", cut)
		}
		tr, err := analyzer.FromFile(f)
		if err != nil {
			t.Fatalf("cut at %d: batch load: %v", cut, err)
		}
		analyzer.Validate(tr)
		b := &batchResults{
			tr:      tr,
			summary: analyzer.Summarize(tr),
			profile: analyzer.Profile(tr),
			tags:    analyzer.TagBreakdown(tr),
		}
		b.minGap = analyzer.SuggestGapThreshold(tr)
		b.gaps = analyzer.FindGaps(tr, b.minGap)

		for _, tc := range []struct {
			window    int64
			writeSize int
		}{{0, len(data)}, {1 << 14, 977}} {
			sr := streamIn(t, data, tc.writeSize, analyzer.StreamOptions{
				Limits:   analyzer.Limits{StreamWindowBytes: tc.window},
				Validate: true,
			})
			if !sr.Trace.Truncated {
				t.Fatalf("cut at %d, window %d: stream not flagged truncated", cut, tc.window)
			}
			if !reflect.DeepEqual(sr.Summary, b.summary) {
				t.Errorf("cut at %d, window %d: summaries differ:\nstream %+v\nbatch  %+v", cut, tc.window, sr.Summary, b.summary)
			}
			if !reflect.DeepEqual(sr.Profile, b.profile) {
				t.Errorf("cut at %d, window %d: profiles differ", cut, tc.window)
			}
			var sw, bw bytes.Buffer
			sr.Report(&sw)
			analyzer.Report(b.tr, b.summary, &bw)
			if sw.String() != bw.String() {
				t.Errorf("cut at %d, window %d: reports differ:\nstream:\n%s\nbatch:\n%s", cut, tc.window, sw.String(), bw.String())
			}
		}
	}
}

// TestDoctorLiveMirror: a live mirror's metadata names no anchors — they
// arrive in-band, as LIVE_ANCHOR records in PPE chunks — so salvage must
// count those when it checks an SPE chunk's anchor index, or it takes
// every SPE chunk header for a false magic. Intact, the mirror needs no
// repair and doctor recovers exactly what a load keeps; cut mid-file, it
// recovers at least that, on every core.
func TestDoctorLiveMirror(t *testing.T) {
	live, _ := liveWorkload(t, "pipeline")
	for _, cut := range []int{len(live), len(live) * 3 / 5} {
		data := live[:cut]
		f, err := traceio.Parse(data)
		if err != nil {
			t.Fatalf("cut at %d: parse: %v", cut, err)
		}
		tr, err := analyzer.FromFile(f)
		if err != nil {
			t.Fatalf("cut at %d: load: %v", cut, err)
		}
		d := analyzer.DoctorData(data)
		if !d.Recoverable() {
			t.Fatalf("cut at %d: doctor recovered nothing: %v %v", cut, d.SalvageErr, d.LoadErr)
		}
		if rep := d.Salvage; rep.ChunksDropped != 0 || rep.Resyncs != 0 {
			t.Errorf("cut at %d: salvage dropped %d chunk(s) and resynced %d time(s)",
				cut, rep.ChunksDropped, rep.Resyncs)
		}
		if cut == len(live) && (!d.Salvage.Clean() || d.Trace.NumEvents() != tr.NumEvents()) {
			t.Errorf("intact mirror: clean %v, %d records recovered, load keeps %d",
				d.Salvage.Clean(), d.Trace.NumEvents(), tr.NumEvents())
		}
		for _, c := range tr.Cores() {
			if got, want := len(d.Trace.CoreSeqs(c)), len(tr.CoreSeqs(c)); got < want {
				t.Errorf("cut at %d: core %d: doctor recovered %d records, load keeps %d", cut, c, got, want)
			}
		}
	}
}
