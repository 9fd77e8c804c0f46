package analyzer_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/kinds"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/faults"
	"github.com/celltrace/pdt/internal/harness"
)

const doctorGoldenPath = "testdata/doctor.golden"

// killedPipeline is the pipeline workload at its defaults, its machine
// killed at cycle 250,000: a footerless trace cut mid-run.
func killedPipeline(t *testing.T) []byte {
	t.Helper()
	kill, err := faults.Parse("kill:250000")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{Workload: "pipeline", Trace: &cfg, Faults: kill})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed {
		t.Fatal("kill:250000 did not stop the pipeline")
	}
	return res.TraceBytes
}

// doctorDigest is everything the doctor says about data, hashed: both
// renderings of its report, and of the trace it recovered the issues,
// the confidence and the summary, profile and gaps JSON.
func doctorDigest(t *testing.T, data []byte) string {
	d := analyzer.DoctorData(data)
	var w bytes.Buffer
	d.Write(&w)
	if err := d.WriteJSON(&w); err != nil {
		t.Fatal(err)
	}
	if tr := d.Trace; tr != nil {
		for _, is := range tr.Issues {
			fmt.Fprintln(&w, is)
		}
		fmt.Fprintf(&w, "%v\n", tr.Confidence) // fmt prints map keys sorted
		for _, name := range []string{"summary", "profile", "gaps"} {
			k, _ := kinds.Lookup(name)
			if err := k.JSON(tr, k.Compute(tr), &w); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256(w.Bytes()))[:16]
}

// doctorCases applies the golden's mutations to img, calling fn with a
// name and the damaged copy: the image itself, 19 cuts, a one-byte flip
// every stride bytes, and at seven times that stride an inserted chunk
// magic, a deleted byte and 64 bytes stamped over with 0xA5.
func doctorCases(img []byte, fn func(name string, data []byte)) {
	fn("clean", img)
	for k := 1; k < 20; k++ {
		fn(fmt.Sprintf("cut@%d", len(img)*k/20), img[:len(img)*k/20])
	}
	stride := max(1, len(img)/500)
	for p := 0; p < len(img); p += stride {
		mut := bytes.Clone(img)
		mut[p] ^= 0xFF
		fn(fmt.Sprintf("flip@%d", p), mut)
	}
	for p := stride / 2; p < len(img); p += 7 * stride {
		ins := append(append(bytes.Clone(img[:p]), traceio.ChunkMagic), img[p:]...)
		fn(fmt.Sprintf("insert@%d", p), ins)
		del := append(bytes.Clone(img[:p]), img[p+1:]...)
		fn(fmt.Sprintf("delete@%d", p), del)
		stamp := bytes.Clone(img)
		for i := p; i < min(p+64, len(stamp)); i++ {
			stamp[i] = 0xA5
		}
		fn(fmt.Sprintf("stamp@%d", p), stamp)
	}
}

// TestDoctorGolden pins what the doctor makes of damage, case by case:
// three traces — a sealed one, a killed run and a live mirror whose
// anchors arrive in-band — each through doctorCases, which reach the
// header, the metadata, chunk headers, chunk data and the footer. One
// line per case in testdata/doctor.golden; -update only for a change
// that means to move what the doctor reports.
func TestDoctorGolden(t *testing.T) {
	live, _ := liveWorkload(t, "pipeline")
	traces := []struct {
		name string
		img  []byte
	}{
		{"matmul", traceWorkload(t, "matmul")},
		{"pipeline.kill", killedPipeline(t)},
		{"pipeline.live", live},
	}
	var got bytes.Buffer
	for _, tc := range traces {
		doctorCases(tc.img, func(name string, data []byte) {
			fmt.Fprintf(&got, "%s %s %s\n", tc.name, name, doctorDigest(t, data))
		})
	}
	if *updateGolden {
		if err := os.WriteFile(doctorGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(doctorGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden lists %d cases, test made %d", len(wantLines), len(gotLines))
	}
	bad := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 10 {
				t.Errorf("doctor output changed:\n got  %s\n want %s", gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d cases changed (run `pdt-ta doctor` on the case at the previous commit and diff)",
			bad, len(gotLines))
	}
}

// TestDoctorConfidenceDeterministic: a salvaged trace's confidence sums
// the damage of several cores. Equal input must give equal bytes every
// time — the cache, replicas and the CLI all serve this document.
func TestDoctorConfidenceDeterministic(t *testing.T) {
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{Workload: "nbody", Params: map[string]string{"n": "256"}, Trace: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(res.TraceBytes)
	data[0] ^= 0xFF // header lost: every SPE chunk is dropped, on every core
	var first []byte
	for i := 0; i < 20; i++ {
		var w bytes.Buffer
		if err := analyzer.DoctorData(data).WriteJSON(&w); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = w.Bytes()
		} else if !bytes.Equal(w.Bytes(), first) {
			t.Fatalf("run %d: doctor JSON differs from run 0:\n%s\nvs\n%s", i, w.Bytes(), first)
		}
	}
}

// TestRecordFramingDamageIsCorrupt: a record that does not frame is
// damage, like any other, so both loaders type it traceio.ErrCorrupt —
// the error callers test to point at the doctor (pdt-ta) or answer 422
// with a doctor report (pdt-tad).
func TestRecordFramingDamageIsCorrupt(t *testing.T) {
	data := killedPipeline(t) // no footer, so no file CRC to fail first
	f, err := traceio.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range f.Chunks {
		if c.Core < event.CorePPEBase {
			c.Data[1] = 0xFE // the first record's event ID, in data itself
			break
		}
	}
	if _, err := analyzer.LoadContext(context.Background(), data, analyzer.Limits{}); !traceio.IsCorrupt(err) {
		t.Errorf("batch load: want a corrupt-trace error, got %v", err)
	}
	l := analyzer.NewStreamLoader(analyzer.StreamOptions{})
	_, err = l.Write(data)
	if err == nil {
		_, err = l.Finish()
	}
	if !traceio.IsCorrupt(err) {
		t.Errorf("stream load: want a corrupt-trace error, got %v", err)
	}
}

// TestDoctorCRCValidBadFraming: a writer checksums whatever bytes it is
// given, so a chunk whose CRC matches may still not frame. Such a chunk
// is damage like any other: the strict load rejects the file as corrupt,
// and the doctor keeps the prefix that frames and counts the rest
// damaged, not CLEAN.
func TestDoctorCRCValidBadFraming(t *testing.T) {
	f, err := traceio.Parse(traceWorkload(t, "matmul"))
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	w, err := traceio.NewWriter(&img, f.Header)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMeta(&f.Meta); err != nil {
		t.Fatal(err)
	}
	grown := false
	for _, c := range f.Chunks {
		if c.Core == 0 && !grown {
			// Nine bytes of a record whose size byte says 3, below any
			// record header.
			c.Data = append(bytes.Clone(c.Data), 3, 0, 0, 0, 0, 0, 0, 0, 0)
			grown = true
		}
		if err := w.WriteChunk(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := img.Bytes()

	if _, err := analyzer.LoadContext(context.Background(), data, analyzer.Limits{}); !traceio.IsCorrupt(err) {
		t.Errorf("load: want a corrupt-trace error, got %v", err)
	}
	d := analyzer.DoctorData(data)
	if v := d.Verdict(); v != "RECOVERED" {
		t.Errorf("verdict %s, want RECOVERED", v)
	}
	if rep := d.Salvage; rep.ChunksDamaged != 1 || rep.BytesDamaged != 9 || !rep.FooterOK {
		t.Errorf("salvage: %d chunk(s) and %d byte(s) damaged, footer ok %v; want 1, 9, true",
			rep.ChunksDamaged, rep.BytesDamaged, rep.FooterOK)
	}
}
