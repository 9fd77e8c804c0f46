package analyzer

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/core/traceio/tracetest"
)

func TestCriticalPathSkewedLoad(t *testing.T) {
	// One SPE does 10x the work: the path must be dominated by it.
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		var hs []*cell.SPEHandle
		for i := 0; i < 4; i++ {
			work := uint64(10000)
			if i == 2 {
				work = 100000
			}
			w := work
			hs = append(hs, h.Run(i, "cp", func(spu cell.SPU) uint32 {
				spu.Compute(w)
				return 0
			}))
		}
		for _, hd := range hs {
			h.Wait(hd)
		}
	})
	cp := ComputeCriticalPath(tr)
	if cp.Total == 0 || len(cp.Segments) == 0 {
		t.Fatal("empty critical path")
	}
	if cp.CoreTicks[2] == 0 {
		t.Fatal("heavy SPE not on the path")
	}
	// The heavy SPE must dominate the other SPEs on the path.
	for _, c := range []uint8{0, 1, 3} {
		if cp.CoreTicks[c] > cp.CoreTicks[2]/2 {
			t.Fatalf("SPE%d has %d path ticks vs heavy SPE's %d", c, cp.CoreTicks[c], cp.CoreTicks[2])
		}
	}
	// Segments are chronological and non-overlapping.
	for i := 1; i < len(cp.Segments); i++ {
		if cp.Segments[i].Start < cp.Segments[i-1].End {
			t.Fatalf("segments overlap: %+v then %+v", cp.Segments[i-1], cp.Segments[i])
		}
	}
}

func TestCriticalPathCrossesMailbox(t *testing.T) {
	// PPE waits on a mailbox value the SPE produces late: the path must
	// include a cross hop through the mailbox edge.
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		hd := h.Run(0, "mx", func(spu cell.SPU) uint32 {
			spu.Compute(50000)
			spu.WriteOutMbox(1)
			return 0
		})
		if h.ReadOutMbox(0) != 1 {
			t.Error("wrong value")
		}
		h.Compute(100)
		h.Wait(hd)
	})
	cp := ComputeCriticalPath(tr)
	foundCross := false
	for _, s := range cp.Segments {
		if s.Cross {
			foundCross = true
		}
	}
	if !foundCross {
		t.Fatalf("no cross-core hop on the path: %+v", cp.Segments)
	}
	// The SPE's long compute must be attributed to the SPE, not the PPE.
	if cp.CoreTicks[0] < cp.CoreTicks[event.CorePPE] {
		t.Fatalf("path attribution wrong: SPE %d vs PPE %d",
			cp.CoreTicks[0], cp.CoreTicks[event.CorePPE])
	}
}

// TestChannelResync: mailboxes pair by position and value, so one lost
// record costs one pair. SPE 0 sends 1 to 4 on its outbound mailbox but
// the read of 2 is lost; the PPE's inbound mailbox to SPE 1 is read 5,
// 6, 7 but the send of 6 is lost. Every other read pairs with the ENTER
// of the send of its value, the read of 1 too, though it is stamped
// before that send's EXIT.
func TestChannelResync(t *testing.T) {
	ppe := func(g uint64, id event.ID, args ...uint64) tracetest.Row {
		return tracetest.Row{Rec: event.Record{ID: id, Core: event.CorePPE, Args: tracetest.Args(id, args...)}, Global: g, Run: -1}
	}
	spe := func(g uint64, core uint8, id event.ID, args ...uint64) tracetest.Row {
		return tracetest.Row{Rec: event.Record{ID: id, Core: core, Args: tracetest.Args(id, args...)}, Global: g, Run: int(core)}
	}
	rows := []tracetest.Row{
		spe(10, 0, event.SPEWriteOutMboxEnter, 1),
		ppe(11, event.PPEReadOutMboxExit, 0, 1),
		spe(12, 0, event.SPEWriteOutMboxExit, 1),
		spe(20, 0, event.SPEWriteOutMboxEnter, 2),
		spe(21, 0, event.SPEWriteOutMboxExit, 2),
		spe(30, 0, event.SPEWriteOutMboxEnter, 3),
		spe(31, 0, event.SPEWriteOutMboxExit, 3),
		ppe(32, event.PPEReadOutMboxExit, 0, 3),
		spe(40, 0, event.SPEWriteOutMboxEnter, 4),
		spe(41, 0, event.SPEWriteOutMboxExit, 4),
		ppe(42, event.PPEReadOutMboxExit, 0, 4),
		ppe(50, event.PPEWriteInMboxEnter, 1, 5),
		ppe(51, event.PPEWriteInMboxExit, 1, 5),
		spe(52, 1, event.SPEReadInMboxExit, 5),
		spe(62, 1, event.SPEReadInMboxExit, 6),
		ppe(70, event.PPEWriteInMboxEnter, 1, 7),
		ppe(71, event.PPEWriteInMboxExit, 1, 7),
		spe(72, 1, event.SPEReadInMboxExit, 7),
	}
	tr, err := Load(bytes.NewReader(tracetest.Encode(t, traceio.Meta{}, rows, 0)))
	if err != nil {
		t.Fatal(err)
	}
	s := tr.col
	got := map[uint64]uint64{}
	for r, snd := range matchChannels(s) {
		if snd >= 0 {
			got[s.Global[r]] = s.Global[snd]
		}
	}
	want := map[uint64]uint64{11: 10, 32: 30, 42: 40, 52: 50, 72: 70}
	if len(got) != len(want) {
		t.Errorf("%d reads paired, want %d: %v", len(got), len(want), got)
	}
	for r, snd := range want {
		if got[r] != snd {
			t.Errorf("read at %d paired with the send at %d, want %d", r, got[r], snd)
		}
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	cp := ComputeCriticalPath(&Trace{})
	if cp.Total != 0 || len(cp.Segments) != 0 {
		t.Fatal("nonempty path from empty trace")
	}
	var buf bytes.Buffer
	WriteCriticalPathFrom(cp, &buf, 5)
	if !strings.Contains(buf.String(), "empty") {
		t.Fatalf("output: %s", buf.String())
	}
}

func TestWriteCriticalPath(t *testing.T) {
	tr := simTrace(t, core.DefaultTraceConfig(), func(h cell.Host) {
		h.Wait(h.Run(1, "wcp", func(spu cell.SPU) uint32 {
			spu.Compute(5000)
			return 0
		}))
	})
	var buf bytes.Buffer
	WriteCriticalPathFrom(ComputeCriticalPath(tr), &buf, 5)
	out := buf.String()
	for _, want := range []string{"critical path:", "SPE1", "PPE", "largest segments"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

// writeCriticalPathJSONReference is the encoding/json rendering the
// hand-written WriteCriticalPathJSON must reproduce byte for byte.
func writeCriticalPathJSONReference(cp *CriticalPath, w io.Writer) error {
	type segment struct {
		Core      string `json:"core"`
		Run       int    `json:"run"`
		StartTick uint64 `json:"startTick"`
		EndTick   uint64 `json:"endTick"`
		Ticks     uint64 `json:"ticks"`
		Via       string `json:"via"`
		Cross     bool   `json:"cross"`
	}
	out := struct {
		TotalTicks uint64            `json:"totalTicks"`
		CoreTicks  map[string]uint64 `json:"coreTicks"`
		Segments   []segment         `json:"segments"`
	}{TotalTicks: cp.Total, CoreTicks: map[string]uint64{}, Segments: []segment{}}
	for c, t := range cp.CoreTicks {
		out.CoreTicks[event.CoreName(c)] = t
	}
	for _, s := range cp.Segments {
		out.Segments = append(out.Segments, segment{
			Core: event.CoreName(s.Core), Run: s.Run,
			StartTick: s.Start, EndTick: s.End, Ticks: s.Dur(),
			Via: s.Via.String(), Cross: s.Cross,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

// TestWriteCriticalPathJSONMatchesEncoder holds the appending renderer to
// encoding/json on paths the workloads do not produce: empty, every core
// class, negative runs, unregistered event IDs and extreme tick values,
// into a bare writer and into a bytes.Buffer that already holds data.
func TestWriteCriticalPathJSONMatchesEncoder(t *testing.T) {
	big := &CriticalPath{CoreTicks: map[uint8]uint64{}}
	for i := 0; i < 10000; i++ {
		c := uint8(i % 9)
		if c == 8 {
			c = event.CorePPE - uint8(i%3)
		}
		start := uint64(i) * 1000003
		big.Segments = append(big.Segments, PathSegment{
			Core: c, Run: i%7 - 1, Start: start, End: start + uint64(i%13)*97,
			Via: event.ID(i % int(event.NumIDs()+3)), Cross: i%5 == 0,
		})
		big.CoreTicks[c] += uint64(i % 13 * 97)
		big.Total = start
	}
	cases := map[string]*CriticalPath{
		"zero":  {},
		"empty": {CoreTicks: map[uint8]uint64{}, Segments: []PathSegment{}},
		"extremes": {
			Total:     math.MaxUint64,
			CoreTicks: map[uint8]uint64{0: 0, 15: math.MaxUint64, event.CorePPE: 1, event.CorePPEBase: 2},
			Segments: []PathSegment{
				{Core: event.CorePPEBase, Run: math.MinInt32, End: math.MaxUint64, Via: event.NumIDs() + 40},
				{Core: 200, Run: math.MaxInt32, Start: 1, End: 1, Via: 0, Cross: true},
			},
		},
		"big": big,
	}
	for name, cp := range cases {
		var want bytes.Buffer
		if err := writeCriticalPathJSONReference(cp, &want); err != nil {
			t.Fatal(err)
		}
		var plain bytes.Buffer
		if err := WriteCriticalPathJSON(cp, struct{ io.Writer }{&plain}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain.Bytes(), want.Bytes()) {
			t.Fatalf("%s: bare writer got\n%s\nwant\n%s", name, plain.Bytes(), want.Bytes())
		}
		buf := bytes.NewBufferString("prefix")
		if err := WriteCriticalPathJSON(cp, buf); err != nil {
			t.Fatal(err)
		}
		if got := buf.Bytes(); !bytes.Equal(got[len("prefix"):], want.Bytes()) {
			t.Fatalf("%s: bytes.Buffer got\n%s\nwant\n%s", name, got, want.Bytes())
		}
	}
	// The buffer is sized up front: rendering into an empty bytes.Buffer
	// never regrows it, and leaves at most a byte a segment plus the
	// allocator's rounding unused.
	var buf bytes.Buffer
	if err := WriteCriticalPathJSON(big, &buf); err != nil {
		t.Fatal(err)
	}
	if slack := cap(buf.Bytes()) - buf.Len(); slack > len(big.Segments)+8192 {
		t.Fatalf("buffer cap %d for %d bytes: sized wrong", cap(buf.Bytes()), buf.Len())
	}
}
