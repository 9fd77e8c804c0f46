package analyzer_test

// External test package: the equivalence suite drives whole traced
// workload runs through the harness (which itself imports analyzer), so
// it cannot live in package analyzer.

import (
	"context"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/core/traceio/tracetest"
	"github.com/celltrace/pdt/internal/workloads"
)

// TestParallelLoadMatchesSerialAllWorkloads runs every registered
// workload traced and asserts the parallel pipeline reconstructs a store
// identical — row for row, including tie-break order — to the serial
// stable-sort reference.
func TestParallelLoadMatchesSerialAllWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			f, err := traceio.Parse(traceWorkload(t, name))
			if err != nil {
				t.Fatal(err)
			}
			want, err := analyzer.FromFileSerial(f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := analyzer.FromFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if want.NumEvents() == 0 {
				t.Fatal("reference trace is empty — workload produced no records")
			}
			analyzer.AssertStoresEqual(t, want.Columns(), want.Time, got)
			if !reflect.DeepEqual(want.Issues, got.Issues) {
				t.Fatalf("issues differ: serial %v, parallel %v", want.Issues, got.Issues)
			}
			if !reflect.DeepEqual(want.Strings, got.Strings) {
				t.Fatalf("string tables differ")
			}
			for run := range want.Meta.Anchors {
				if !slices.Equal(want.RunSeqs(run), got.RunSeqs(run)) {
					t.Fatalf("RunSeqs(%d) differ", run)
				}
			}
			if !slices.Equal(want.CoreSeqs(event.CorePPE), got.CoreSeqs(event.CorePPE)) {
				t.Fatal("CoreSeqs(PPE) differ")
			}
		})
	}
}

// TestDerivedTimeMatchesDecoded holds the raw stamp a loaded trace
// derives for each row (Trace.Record: Global less its run's anchor tick)
// to the stamp the reference loader decoded, on the inputs whose anchors
// or order come from somewhere other than a sealed file's metadata: a
// live mirror (in-band anchors), salvaged 70% cuts of it and of the
// sealed trace, and the sealed trace re-chunked to 3 records a chunk
// with one chunk's records reversed, which the load must sort. Every
// workload's sealed trace is covered by
// TestParallelLoadMatchesSerialAllWorkloads.
func TestDerivedTimeMatchesDecoded(t *testing.T) {
	live, sealed := liveWorkload(t, "pipeline")
	parse := func(img []byte) *traceio.File {
		f, err := traceio.Parse(img)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	salvage := func(img []byte) *traceio.File {
		f, _, err := traceio.Salvage(img[:len(img)*7/10])
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	rechunked := tracetest.Rechunk(t, sealed, 3)
	unsorted := func() *traceio.File {
		f := parse(rechunked)
		for i, c := range f.Chunks {
			offs, n, err := traceio.FrameRecords(context.Background(), c.Core, c.Data, nil, 0, traceio.Limits{})
			if err != nil || c.Core == event.CorePPE || len(offs) < 2 ||
				binary.LittleEndian.Uint64(c.Data[offs[0]+5:]) == binary.LittleEndian.Uint64(c.Data[offs[len(offs)-1]+5:]) {
				continue
			}
			var data []byte
			for j := len(offs) - 1; j >= 0; j-- {
				end := uint32(n)
				if j+1 < len(offs) {
					end = offs[j+1]
				}
				data = append(data, c.Data[offs[j]:end]...)
			}
			f.Chunks[i].Data = data
			return f
		}
		t.Fatal("no SPE chunk holds two distinct stamps")
		return nil
	}
	for _, tc := range []struct {
		name string
		file func() *traceio.File
	}{
		{"live mirror", func() *traceio.File { return parse(live) }},
		{"live mirror, salvaged 70% cut", func() *traceio.File { return salvage(live) }},
		{"sealed, salvaged 70% cut", func() *traceio.File { return salvage(sealed) }},
		{"rechunked, one chunk reversed", unsorted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := analyzer.FromFileSerial(tc.file())
			if err != nil {
				t.Fatal(err)
			}
			got, err := analyzer.FromFile(tc.file())
			if err != nil {
				t.Fatal(err)
			}
			if want.NumEvents() == 0 {
				t.Fatal("reference trace is empty")
			}
			analyzer.AssertStoresEqual(t, want.Columns(), want.Time, got)
		})
	}
}
