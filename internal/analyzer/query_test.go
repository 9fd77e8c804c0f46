package analyzer

import (
	"bytes"
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core"
)

func queryTrace(t *testing.T) *Trace {
	t.Helper()
	return simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		var hs []*cell.SPEHandle
		for i := 0; i < 2; i++ {
			hs = append(hs, h.Run(i, "q", func(spu cell.SPU) uint32 {
				for j := 0; j < 5; j++ {
					spu.Get(0, 0, 1024, 0)
					spu.WaitTagAll(1)
					spu.Compute(1000)
				}
				spu.WriteOutMbox(1)
				return 0
			}))
		}
		h.ReadOutMbox(0)
		h.ReadOutMbox(1)
		for _, hd := range hs {
			h.Wait(hd)
		}
	})
}

func TestDMASlackSingleVsDoubleBuffer(t *testing.T) {
	// Single-buffered streaming waits immediately after issue (tiny
	// slack); double buffering issues the next transfer before waiting
	// (large slack, small wait).
	slack := func(buffers string) (meanSlack, meanWait float64) {
		tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
			src := h.Alloc(64*1024, 128)
			n := 8
			h.Wait(h.Run(0, "s", func(spu cell.SPU) uint32 {
				if buffers == "1" {
					for i := 0; i < n; i++ {
						spu.Get(0, src, 16*1024, 0)
						spu.WaitTagAll(1)
						spu.Compute(5000)
					}
				} else {
					spu.Get(0, src, 16*1024, 0)
					for i := 0; i < n; i++ {
						if i+1 < n {
							spu.Get(16*1024, src, 16*1024, 1)
						}
						spu.WaitTagAll(1)
						spu.Compute(5000)
						// Swap roles (tags 0/1 alternate).
						spu.Get(0, src, 16*1024, 0)
						spu.WaitTagAll(1 << 1)
						spu.Compute(5000)
					}
				}
				return 0
			}))
		})
		st := DMASlack(tr, 0)
		return st.Slack.Mean(), st.WaitDur.Mean()
	}
	s1, w1 := slack("1")
	s2, w2 := slack("2")
	if s2 <= s1 {
		t.Fatalf("double-buffer slack %.0f not above single %.0f", s2, s1)
	}
	if w2 >= w1 {
		t.Fatalf("double-buffer wait %.0f not below single %.0f", w2, w1)
	}
}

func TestBandwidthSeries(t *testing.T) {
	tr := queryTrace(t)
	pts := BandwidthSeries(tr, 10)
	if len(pts) != 10 {
		t.Fatalf("points = %d", len(pts))
	}
	var total uint64
	for _, p := range pts {
		total += p.Bytes
	}
	if total != 10*1024 { // 10 GETs of 1 KiB
		t.Fatalf("total bytes = %d, want 10240", total)
	}
	if BandwidthSeries(&Trace{}, 5) != nil {
		t.Fatal("series on empty trace")
	}
}

func TestCompareSummaries(t *testing.T) {
	tr := queryTrace(t)
	s := Summarize(tr)
	c := Compare(s, s)
	if c.Speedup != 1 {
		t.Fatalf("self-compare speedup = %v", c.Speedup)
	}
	var buf bytes.Buffer
	RenderComparison(c, "before", "after", &buf)
	for _, want := range []string{"before", "after", "speedup", "dma-wait"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("comparison missing %q:\n%s", want, buf.String())
		}
	}
}

func TestWriteHTML(t *testing.T) {
	tr := queryTrace(t)
	Validate(tr)
	s := Summarize(tr)
	var buf bytes.Buffer
	if err := WriteHTML(tr, s, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<!DOCTYPE html>", "<svg", "SPE runs", "Event counts", "SPE_MFC_GET"} {
		if !strings.Contains(out, want) {
			t.Fatalf("html missing %q", want)
		}
	}
}

func TestHTMLEscapesWorkloadName(t *testing.T) {
	tr := queryTrace(t)
	s := Summarize(tr)
	s.Workload = `<script>alert(1)</script>`
	var buf bytes.Buffer
	if err := WriteHTML(tr, s, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "<script>alert") {
		t.Fatal("workload name not escaped")
	}
}
