package workloads

import (
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
)

func TestStreamSmall(t *testing.T) {
	runWorkload(t, "stream", map[string]string{"elements": "16384", "buffers": "1"}, false)
}

func TestStreamDoubleBuffered(t *testing.T) {
	runWorkload(t, "stream", map[string]string{"elements": "16384", "buffers": "2"}, false)
}

func TestStreamTracedTraffic(t *testing.T) {
	_, tr := runWorkload(t, "stream", map[string]string{"elements": "32768"}, true)
	s := analyzer.Summarize(tr)
	var in, out uint64
	for _, d := range s.DMA {
		in += d.BytesIn
		out += d.BytesOut
	}
	// Reads: b and c (2 x elements x 4B); writes: a (elements x 4B).
	if in != 2*32768*4 || out != 32768*4 {
		t.Fatalf("bytes in/out = %d/%d", in, out)
	}
}

func TestStreamBandwidthBound(t *testing.T) {
	// With 8 SPEs the run must approach the memory-interface limit:
	// moving 12 bytes/element through an 8 B/cycle controller needs at
	// least elements*12/8 cycles.
	w := NewStream()
	const elements = 65536
	if err := w.Configure(map[string]string{"elements": "65536"}); err != nil {
		t.Fatal(err)
	}
	m, _ := runWorkload(t, "stream", map[string]string{"elements": "65536"}, false)
	floor := uint64(elements * 12 / 8)
	if m.Now() < floor {
		t.Fatalf("run of %d cycles beat the bandwidth floor %d", m.Now(), floor)
	}
	if m.Now() > floor*4 {
		t.Fatalf("run of %d cycles is far above the bandwidth floor %d; streaming broken", m.Now(), floor)
	}
}

func TestStreamPartitionRemainder(t *testing.T) {
	// 3 chunks over 8 SPEs: most SPEs get no work and must exit cleanly.
	runWorkload(t, "stream", map[string]string{"elements": "12288"}, false)
}

func TestStreamConfigValidation(t *testing.T) {
	rejectsAll(t, "stream", []map[string]string{
		{"elements": "1000"}, // not multiple of chunk
		{"elements": "0"},
		{"buffers": "3"},
	})
}
