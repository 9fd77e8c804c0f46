package analyzer

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// encodeFile serializes meta+chunks through the writer and parses the
// result back, giving the pipeline exactly what a disk trace provides.
func encodeFile(t *testing.T, meta traceio.Meta, chunks []traceio.Chunk) *traceio.File {
	t.Helper()
	var buf bytes.Buffer
	w, err := traceio.NewWriter(&buf, traceio.Header{Version: traceio.Version, NumSPEs: 8, TimebaseDiv: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMeta(&meta); err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if err := w.WriteChunk(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := traceio.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// assertTracesEqual compares every observable of two loaded traces,
// including the row-for-row column store and the precomputed indexes.
func assertTracesEqual(t *testing.T, want, got *Trace) {
	t.Helper()
	if want.Truncated != got.Truncated {
		t.Fatalf("Truncated: want %v got %v", want.Truncated, got.Truncated)
	}
	if !reflect.DeepEqual(want.Issues, got.Issues) {
		t.Fatalf("Issues differ:\nwant %v\ngot  %v", want.Issues, got.Issues)
	}
	if !reflect.DeepEqual(want.Strings, got.Strings) {
		t.Fatalf("Strings differ:\nwant %v\ngot  %v", want.Strings, got.Strings)
	}
	AssertStoresEqual(t, want.col, got.col)
	for core := 0; core < 256; core++ {
		if !slices.Equal(want.CoreSeqs(uint8(core)), got.CoreSeqs(uint8(core))) {
			t.Fatalf("CoreSeqs(%d) differ", core)
		}
	}
	for run := -1; run < len(want.Meta.Anchors)+1; run++ {
		if !slices.Equal(want.RunSeqs(run), got.RunSeqs(run)) {
			t.Fatalf("RunSeqs(%d) differ", run)
		}
	}
}

// randChunks builds a reproducible random multi-chunk trace designed to
// stress the merge: heavy Global-time ties across chunks (exercising the
// chunk-order tie-break), zero padding runs, interned strings, and the
// occasional chunk that is not time-ordered at the source.
func randChunks(rng *rand.Rand) (traceio.Meta, []traceio.Chunk) {
	meta := traceio.Meta{Workload: "fuzz"}
	nChunks := 1 + rng.Intn(10)
	var chunks []traceio.Chunk
	for c := 0; c < nChunks; c++ {
		var data []byte
		spe := c % 6
		isPPE := rng.Intn(4) == 0
		core := uint8(spe)
		anchor := uint16(traceio.NoAnchor)
		var flags uint8
		if isPPE {
			core = event.CorePPE
		} else {
			anchor = uint16(len(meta.Anchors))
			meta.Anchors = append(meta.Anchors, traceio.Anchor{
				SPE: spe, Timebase: uint64(rng.Intn(50)), Program: fmt.Sprintf("p%d", c),
			})
			flags = event.FlagDecrTime
		}
		// Mostly-ascending times from a tiny range so cross-chunk ties
		// are common; ~1 in 5 chunks is deliberately unordered.
		tm := uint64(rng.Intn(4))
		shuffle := rng.Intn(5) == 0
		var times []uint64
		nRecs := rng.Intn(40)
		for r := 0; r < nRecs; r++ {
			times = append(times, tm)
			tm += uint64(rng.Intn(3))
		}
		if shuffle {
			rng.Shuffle(len(times), func(i, j int) { times[i], times[j] = times[j], times[i] })
		}
		for r := 0; r < nRecs; r++ {
			var rec event.Record
			switch rng.Intn(3) {
			case 0:
				rec = event.Record{ID: event.SPEUserEvent, Args: []uint64{uint64(r), 1, 2}}
			case 1:
				rec = event.Record{ID: event.SPEMFCGet, Args: []uint64{0, 4096, 128, uint64(r % 8)}}
			default:
				rec = event.Record{ID: event.StringDef, Flags: event.FlagHasStr,
					Args: []uint64{uint64(rng.Intn(6))}, Str: fmt.Sprintf("s%d-%d", c, r)}
			}
			rec.Core = core
			rec.Flags |= flags
			rec.Time = times[r]
			var err error
			data, err = rec.AppendTo(data)
			if err != nil {
				panic(err)
			}
			if rng.Intn(6) == 0 {
				// DMA-alignment padding run between flush regions.
				data = append(data, make([]byte, 1+rng.Intn(40))...)
			}
		}
		chunks = append(chunks, traceio.Chunk{Core: core, AnchorIdx: anchor, Data: data})
	}
	return meta, chunks
}

// TestPipelineMatchesSerialFuzzed proves the parallel pipeline and the
// stable-sort reference produce identical traces — Seq for Seq, issue
// for issue — on randomized multi-chunk inputs, across worker counts.
func TestPipelineMatchesSerialFuzzed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		meta, chunks := randChunks(rng)
		f := encodeFile(t, meta, chunks)
		want, err := FromFileSerial(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			got, err := fromFile(context.Background(), f, workers, false, Limits{})
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			assertTracesEqual(t, want, got)
		}
	}
}

// TestPipelineChunkIssues checks that per-chunk findings (anchor
// mismatch, mid-record truncation) surface identically and in the same
// order from both load paths.
func TestPipelineChunkIssues(t *testing.T) {
	meta := traceio.Meta{
		Anchors: []traceio.Anchor{{SPE: 3, Timebase: 10, Program: "x"}}, // chunk below claims core 1
	}
	rec := event.Record{ID: event.SPEUserEvent, Core: 1, Flags: event.FlagDecrTime,
		Time: 5, Args: []uint64{1, 2, 3}}
	data, err := rec.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	truncated := append(append([]byte{}, data...), data[:5]...) // second record cut mid-header
	chunks := []traceio.Chunk{
		{Core: 1, AnchorIdx: 0, Data: data},
		{Core: 1, AnchorIdx: 0, Data: truncated},
	}
	f := encodeFile(t, meta, chunks)
	want, err := FromFileSerial(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Issues) != 3 { // mismatch (chunk 0), mismatch + truncation (chunk 1)
		t.Fatalf("expected 3 issues from reference path, got %v", want.Issues)
	}
	got, err := fromFile(context.Background(), f, 2, false, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, want, got)
}

// TestPipelineBadAnchorError checks both paths reject a chunk whose
// anchor index is out of range, with the same error.
func TestPipelineBadAnchorError(t *testing.T) {
	rec := event.Record{ID: event.SPEUserEvent, Core: 0, Flags: event.FlagDecrTime,
		Time: 1, Args: []uint64{1, 2, 3}}
	data, err := rec.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	f := encodeFile(t, traceio.Meta{}, []traceio.Chunk{{Core: 0, AnchorIdx: 4, Data: data}})
	_, errSerial := FromFileSerial(f)
	_, errPar := fromFile(context.Background(), f, 2, false, Limits{})
	if errSerial == nil || errPar == nil {
		t.Fatalf("expected errors, got serial=%v parallel=%v", errSerial, errPar)
	}
	if errSerial.Error() != errPar.Error() {
		t.Fatalf("errors differ: serial=%v parallel=%v", errSerial, errPar)
	}
}

// TestMergeStreams exercises the k-way merge directly on corner cases.
// Each stream's run tag is set to its own index so the Run column
// records which stream every merged row came from, making the
// tie-breaking order observable.
func TestMergeStreams(t *testing.T) {
	stream := func(tag int32, globals ...uint64) chunkStream {
		s := chunkStream{globals: globals, run: tag}
		for range globals {
			rec := event.Record{ID: event.SPEUserEvent, Args: []uint64{0, 0, 0}}
			s.offs = append(s.offs, uint32(len(s.data)))
			s.data, _ = rec.AppendTo(s.data)
		}
		return s
	}
	cases := []struct {
		name    string
		streams []chunkStream
		want    []uint64 // expected Global order
		runs    []int    // expected Run (stream tag) order, checking ties
	}{
		{"empty", nil, nil, nil},
		{"single", []chunkStream{stream(0, 3, 5)}, []uint64{3, 5}, []int{0, 0}},
		{"ties break by chunk order",
			[]chunkStream{stream(0, 1, 2), stream(1, 1, 2), stream(2, 1)},
			[]uint64{1, 1, 1, 2, 2}, []int{0, 1, 2, 0, 1}},
		{"with empty stream between",
			[]chunkStream{stream(0, 4), {run: 1}, stream(2, 2, 4)},
			[]uint64{2, 4, 4}, []int{2, 0, 2}},
	}
	for _, tc := range cases {
		total := 0
		for _, s := range tc.streams {
			total += len(s.offs)
		}
		b := colstore.NewBuilder(total, 0)
		if err := mergeStreams(context.Background(), b, tc.streams, total); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := b.Done()
		if got.Len() != len(tc.want) {
			t.Fatalf("%s: got %d events, want %d", tc.name, got.Len(), len(tc.want))
		}
		for i := 0; i < got.Len(); i++ {
			if got.Global[i] != tc.want[i] || int(got.Run[i]) != tc.runs[i] {
				t.Fatalf("%s: event %d = (t=%d, stream=%d), want (t=%d, stream=%d)",
					tc.name, i, got.Global[i], got.Run[i], tc.want[i], tc.runs[i])
			}
		}
	}
}
