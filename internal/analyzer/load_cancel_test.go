package analyzer

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// assertNoLeakedGoroutines waits (briefly) for the goroutine count to
// return to the pre-test baseline: decode workers are joined before
// fromFile returns, so anything above baseline that persists is a leak.
func assertNoLeakedGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// bigTestFile builds a parsed multi-chunk file large enough that the
// pipeline is genuinely mid-flight when a cancel lands.
func bigTestFile(t *testing.T, chunks, recsPerChunk int) *traceio.File {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	meta := traceio.Meta{}
	var cs []traceio.Chunk
	for c := 0; c < chunks; c++ {
		spe := c % 4
		meta.Anchors = append(meta.Anchors, traceio.Anchor{
			SPE: spe, Timebase: uint64(c * 1000), Program: "cancel-test"})
		var data []byte
		var err error
		for r := 0; r < recsPerChunk; r++ {
			rec := event.Record{ID: event.SPEMFCGet, Core: uint8(spe), Flags: event.FlagDecrTime,
				Time: uint64(r*7 + rng.Intn(5)), Args: []uint64{0, 64, 128, uint64(r % 16)}}
			data, err = rec.AppendTo(data)
			if err != nil {
				t.Fatal(err)
			}
		}
		cs = append(cs, traceio.Chunk{Core: uint8(spe), AnchorIdx: uint16(c), Data: data})
	}
	return encodeFile(t, meta, cs)
}

// TestFromFileContextCancelMidPipeline cancels loads at a spread of
// delays — from "before the first worker runs" to "after the merge is
// done" — and checks every outcome is either a clean trace or ctx.Err(),
// with all pipeline goroutines joined (run under -race in CI).
func TestFromFileContextCancelMidPipeline(t *testing.T) {
	f := bigTestFile(t, 16, 4000)
	baseline := runtime.NumGoroutine()

	delays := []time.Duration{0, 50 * time.Microsecond, 200 * time.Microsecond,
		time.Millisecond, 5 * time.Millisecond, 50 * time.Millisecond}
	for trial := 0; trial < 30; trial++ {
		d := delays[trial%len(delays)]
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(d)
			cancel()
		}()
		tr, err := FromFileContext(ctx, f, Limits{})
		cancel()
		switch {
		case err == nil:
			if tr.NumEvents() != 16*4000 {
				t.Fatalf("trial %d: complete load has %d events, want %d", trial, tr.NumEvents(), 16*4000)
			}
		case errors.Is(err, context.Canceled):
			if tr != nil {
				t.Fatalf("trial %d: cancelled load returned a trace", trial)
			}
		default:
			t.Fatalf("trial %d: unexpected error %v", trial, err)
		}
	}
	assertNoLeakedGoroutines(t, baseline)
}

// TestFromFileContextCancelledUpFront: an already-dead context never
// starts the pipeline.
func TestFromFileContextCancelledUpFront(t *testing.T) {
	f := bigTestFile(t, 2, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	baseline := runtime.NumGoroutine()
	if _, err := FromFileContext(ctx, f, Limits{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	assertNoLeakedGoroutines(t, baseline)
}

// TestFromFileContextDeadline: an expired deadline surfaces as
// context.DeadlineExceeded, the distinct error the CLIs map to their
// timeout exit code.
func TestFromFileContextDeadline(t *testing.T) {
	f := bigTestFile(t, 8, 4000)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := FromFileContext(ctx, f, Limits{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// cancelOnSecondErr is a context whose Err reports context.Canceled from
// its second call on: a load that polls it once up front and then
// again inside its first loop sees the cancel there.
type cancelOnSecondErr struct {
	context.Context
	calls atomic.Int32
}

func (c *cancelOnSecondErr) Err() error {
	if c.calls.Add(1) >= 2 {
		return context.Canceled
	}
	return nil
}

// TestLiveAnchorScanHonoursContext: the scan that rebuilds a live
// mirror's anchor table from its PPE chunks polls the load's context as
// the decode does, so a load cancelled during it stops there instead of
// framing every PPE record first.
func TestLiveAnchorScanHonoursContext(t *testing.T) {
	const anchors = 5000 // more than one context-poll stride of records
	var ppe []byte
	for i := 0; i < anchors; i++ {
		rec := event.Record{ID: event.LiveAnchor, Core: event.CorePPE, Flags: event.FlagHasStr,
			Time: uint64(i), Args: []uint64{0, uint64(i), 0}, Str: "live"}
		var err error
		if ppe, err = rec.AppendTo(ppe); err != nil {
			t.Fatal(err)
		}
	}
	spe, err := (&event.Record{ID: event.SPEUserEvent, Core: 0, Flags: event.FlagDecrTime,
		Time: 1, Args: []uint64{1, 2, 3}}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	f := encodeFile(t, traceio.Meta{}, []traceio.Chunk{
		{Core: event.CorePPE, AnchorIdx: traceio.NoAnchor, Data: ppe},
		{Core: 0, AnchorIdx: 0, Data: spe},
	})
	if _, err := FromFileContext(&cancelOnSecondErr{Context: context.Background()}, f, Limits{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := len(f.Meta.Anchors); n >= anchors {
		t.Fatalf("the cancelled scan appended all %d anchors", n)
	}
}

// TestFromFileLimits exercises the analyzer-side admission checks:
// record-count budget, decode-memory budget, and per-chunk byte cap —
// the last also through the salvage path, which must not excuse
// resource limits.
func TestFromFileLimits(t *testing.T) {
	f := bigTestFile(t, 4, 500) // 2000 records total
	ctx := context.Background()

	if _, err := FromFileContext(ctx, f, Limits{MaxRecords: 100}); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("MaxRecords: want ErrLimitExceeded, got %v", err)
	}
	if _, err := FromFileContext(ctx, f, Limits{MaxDecodeBytes: 1024}); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("MaxDecodeBytes: want ErrLimitExceeded, got %v", err)
	}
	if _, err := FromFileContext(ctx, f, Limits{MaxChunkBytes: 64}); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("MaxChunkBytes: want ErrLimitExceeded, got %v", err)
	}
	if _, err := FromSalvagedContext(ctx, f, nil, Limits{MaxChunkBytes: 64}); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("salvaged MaxChunkBytes: want ErrLimitExceeded, got %v", err)
	}
	// Generous limits admit the trace untouched.
	tr, err := FromFileContext(ctx, f, DefaultServiceLimits())
	if err != nil {
		t.Fatalf("within limits: %v", err)
	}
	if tr.NumEvents() != 2000 {
		t.Fatalf("admitted load lost events: %d", tr.NumEvents())
	}
}

// TestDecodePanicBecomesIssue injects a panic into one chunk's decode and
// checks it degrades into a per-chunk Issue — the other chunks' records
// survive and the load succeeds.
func TestDecodePanicBecomesIssue(t *testing.T) {
	f := bigTestFile(t, 4, 100)
	decodePanicHook = func(chunk int) {
		if chunk == 2 {
			panic("injected decode fault")
		}
	}
	defer func() { decodePanicHook = nil }()

	baseline := runtime.NumGoroutine()
	tr, err := fromFile(context.Background(), f, 4, Limits{})
	if err != nil {
		t.Fatalf("load with poisoned chunk failed outright: %v", err)
	}
	if tr.NumEvents() != 3*100 {
		t.Fatalf("got %d events, want the 300 from intact chunks", tr.NumEvents())
	}
	found := false
	for _, is := range tr.Issues {
		if is.Severity == "error" && strings.Contains(is.Msg, "panic") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no panic issue recorded: %v", tr.Issues)
	}
	assertNoLeakedGoroutines(t, baseline)
}
