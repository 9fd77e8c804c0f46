package kinds_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/kinds"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/core/traceio/tracetest"
	"github.com/celltrace/pdt/internal/faults"
	"github.com/celltrace/pdt/internal/harness"
	"github.com/celltrace/pdt/internal/workloads"
)

// TestRechunkingIsInvisible: where a chunk ends depends on the tracer's
// buffer size and nothing else. Every chunk of a workload's trace split
// in place into pieces of per records — the same records, flushed more
// often — must give every kind's JSON byte for byte, and the streaming
// loader's value of every kind it folds, in small windows and odd
// writes, must render batch's JSON.
func TestRechunkingIsInvisible(t *testing.T) {
	for _, name := range workloads.Names() {
		img := traceImage(t, name, workloads.Small(name))
		want := kindsJSON(t, img)
		for _, per := range []int{1, 3} {
			split := tracetest.Rechunk(t, img, per)
			if chunks(t, split) <= chunks(t, img) {
				t.Fatalf("%s per=%d: rechunking split no chunk", name, per)
			}
			got := kindsJSON(t, split)
			for _, k := range kinds.All {
				if !bytes.Equal(got[k.Name], want[k.Name]) {
					t.Errorf("%s per=%d: %s differs from the unsplit trace's", name, per, k.Name)
				}
			}
			for _, window := range []int64{4 << 10, 16 << 10} {
				for kind, got := range streamedJSON(t, split, window) {
					if !bytes.Equal(got, want[kind]) {
						t.Errorf("%s per=%d window=%d: streamed %s differs from batch", name, per, window, kind)
					}
				}
			}
		}
	}
}

// TestVersionsAnalyseAlike: format version 1 differs from version 2 only
// in its chunk headers, which carry no CRC. The same run in either
// encoding — every workload, and one killed mid-run — must give every
// kind's JSON, every streamed kind's JSON, and the doctor's verdict and
// counts alike.
func TestVersionsAnalyseAlike(t *testing.T) {
	kill, err := faults.Parse("kill:250000")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultTraceConfig()
	killed, err := harness.Run(harness.Spec{Workload: "pipeline", Trace: &cfg, Faults: kill})
	if err != nil {
		t.Fatal(err)
	}
	imgs := map[string][]byte{"pipeline.kill": killed.TraceBytes}
	names := append(workloads.Names(), "pipeline.kill")
	for _, name := range names[:len(names)-1] {
		imgs[name] = traceImage(t, name, workloads.Small(name))
	}
	doctor := func(img []byte) string {
		d := analyzer.DoctorData(img)
		r := d.Salvage
		events := 0
		if d.Trace != nil {
			events = d.Trace.NumEvents()
		}
		return fmt.Sprintf("%s header %v meta %v footer %v; chunks %d/%d/%d; records %d; bytes %d/%d/%d; resyncs %d; events %d",
			d.Verdict(), r.HeaderOK, r.MetaOK, r.FooterOK, r.ChunksRecovered, r.ChunksDamaged, r.ChunksDropped,
			r.RecordsRecovered, r.BytesRecovered, r.BytesDamaged, r.BytesSkipped, r.Resyncs, events)
	}
	for _, name := range names {
		v2 := imgs[name]
		v1 := tracetest.V1(t, v2)
		if f, err := traceio.Parse(v1); err != nil || f.Header.Version != 1 {
			t.Fatalf("%s: re-encoding does not parse as version 1: %v", name, err)
		}
		want, got := kindsJSON(t, v2), kindsJSON(t, v1)
		for _, k := range kinds.All {
			if !bytes.Equal(got[k.Name], want[k.Name]) {
				t.Errorf("%s: %s differs between versions 1 and 2", name, k.Name)
			}
		}
		want = streamedJSON(t, v2, 16<<10)
		for kind, got := range streamedJSON(t, v1, 16<<10) {
			if !bytes.Equal(got, want[kind]) {
				t.Errorf("%s: streamed %s differs between versions 1 and 2", name, kind)
			}
		}
		if a, b := doctor(v1), doctor(v2); a != b {
			t.Errorf("%s: doctor differs:\n v1 %s\n v2 %s", name, a, b)
		}
	}
}

// TestTimestampShiftIsInvisible: the kinds read time differences, and
// the absolute stamps only where a report names one. Every workload's
// rows, re-encoded as they are and with every Global 2^20 ticks later,
// must give every kind's JSON alike once the shift is taken off the
// fields that carry a point in time.
func TestTimestampShiftIsInvisible(t *testing.T) {
	const shift = 1 << 20
	for _, name := range workloads.Names() {
		tr, err := analyzer.Load(bytes.NewReader(traceImage(t, name, workloads.Small(name))))
		if err != nil {
			t.Fatal(err)
		}
		col := tr.Columns()
		rows := make([]tracetest.Row, col.Len())
		for i := range rows {
			rows[i] = tracetest.Row{Rec: tr.Record(i), Global: col.Global[i], Run: int(col.Run[i])}
		}
		want := kindsJSON(t, tracetest.Encode(t, tr.Meta, rows, 0))
		for i := range rows {
			rows[i].Global += shift
		}
		got := kindsJSON(t, tracetest.Encode(t, tr.Meta, rows, 0))
		for _, k := range kinds.All {
			if !bytes.Equal(unshift(t, got[k.Name], shift), unshift(t, want[k.Name], 0)) {
				t.Errorf("%s: %s differs once the shift is taken off", name, k.Name)
			}
		}
	}
}

// unshift re-renders a JSON report with shift subtracted from every
// field that holds a point on the timeline.
func unshift(t *testing.T, report []byte, shift uint64) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(report))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for key, f := range v {
				switch key {
				case "startTick", "endTick", "start", "end", "steadyStart", "steadyEnd":
					num, _ := f.(json.Number)
					n, err := strconv.ParseUint(string(num), 10, 64)
					if err != nil {
						t.Fatalf("%s = %v is not a tick", key, f)
					}
					v[key] = n - shift
				default:
					walk(f)
				}
			}
		case []any:
			for _, e := range v {
				walk(e)
			}
		}
	}
	walk(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// streamedJSON loads img through StreamLoader in the given window, in
// odd-sized writes, and renders every kind it folds as JSON.
func streamedJSON(t *testing.T, img []byte, window int64) map[string][]byte {
	t.Helper()
	l := analyzer.NewStreamLoader(analyzer.StreamOptions{
		Validate: true, Limits: analyzer.Limits{StreamWindowBytes: window},
	})
	for off := 0; off < len(img); off += 777 {
		if _, err := l.Write(img[off:min(off+777, len(img))]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := l.Finish()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, k := range kinds.All {
		if k.FromStream == nil {
			continue
		}
		var buf bytes.Buffer
		if err := k.JSON(res.Trace, k.FromStream(res), &buf); err != nil {
			t.Fatal(err)
		}
		out[k.Name] = buf.Bytes()
	}
	if len(out) < 2 {
		t.Fatalf("%d kinds streamed, want summary and profile", len(out))
	}
	return out
}

// kindsJSON loads and validates img and renders every kind as JSON.
func kindsJSON(t *testing.T, img []byte) map[string][]byte {
	t.Helper()
	tr, err := analyzer.Load(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	analyzer.Validate(tr)
	out := map[string][]byte{}
	for _, k := range kinds.All {
		var buf bytes.Buffer
		if err := k.JSON(tr, k.Compute(tr), &buf); err != nil {
			t.Fatal(err)
		}
		out[k.Name] = buf.Bytes()
	}
	return out
}

func chunks(t *testing.T, img []byte) int {
	t.Helper()
	f, err := traceio.Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	return len(f.Chunks)
}
