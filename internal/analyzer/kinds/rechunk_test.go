package kinds_test

import (
	"bytes"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/kinds"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/core/traceio/tracetest"
	"github.com/celltrace/pdt/internal/workloads"
)

// rechunkParams gives every registered workload the small but
// representative configuration of the analyzer's equivalence suites.
var rechunkParams = map[string]map[string]string{
	"matmul":    {"n": "64", "t": "16"},
	"fft":       {"n": "256", "batches": "4"},
	"pipeline":  {"blocks": "8", "blockbytes": "1024"},
	"julia":     {"w": "64", "h": "32", "maxiter": "16", "mode": "dynamic"},
	"histogram": {"size": "65536"},
	"synthetic": {"events": "400", "gap": "100"},
	"stream":    {"elements": "8192"},
	"stencil":   {"w": "64", "h": "16", "iters": "2"},
	"sort":      {"elements": "8192", "chunk": "1024"},
	"nbody":     {"n": "64"},
	"taskfarm":  {"tasks": "16", "blockbytes": "1024"},
}

// TestRechunkingIsInvisible: where a chunk ends depends on the tracer's
// buffer size and nothing else. Every chunk of a workload's trace split
// in place into pieces of per records — the same records, flushed more
// often — must give every kind's JSON byte for byte, and the streaming
// loader's summary, in small windows and odd writes, must equal batch's.
func TestRechunkingIsInvisible(t *testing.T) {
	for _, name := range workloads.Names() {
		params, ok := rechunkParams[name]
		if !ok {
			t.Fatalf("no params for workload %q — add it to rechunkParams", name)
		}
		img := traceImage(t, name, params)
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
				l := analyzer.NewStreamLoader(analyzer.StreamOptions{
					Validate: true, Limits: analyzer.Limits{StreamWindowBytes: window},
				})
				for off := 0; off < len(split); off += 777 {
					if _, err := l.Write(split[off:min(off+777, len(split))]); err != nil {
						t.Fatal(err)
					}
				}
				res, err := l.Finish()
				if err != nil {
					t.Fatal(err)
				}
				var sum bytes.Buffer
				if err := analyzer.WriteJSON(res.Trace, res.Summary, &sum); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sum.Bytes(), want["summary"]) {
					t.Errorf("%s per=%d window=%d: streamed summary differs from batch", name, per, window)
				}
			}
		}
	}
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
