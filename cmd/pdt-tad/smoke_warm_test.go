//go:build smoke

package main

// End-to-end memory gate for `make smoke-tad`, warm side: the real
// pdt-tad binary with default flags, two large trace bodies primed under
// every kind, then two callers of warm hits on them — the benchmark's
// serve_warm shape, large traces only. Every reply must be the bytes an
// in-process render gives and the daemon's peak RSS must stay near what
// the two cached entries need: a body pool that pinned what it recycled,
// or grew with the traffic, shows up here.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"syscall"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/analyzer/kinds"
)

// warmPeakRSSMB bounds the daemon's VmHWM after the warm stream. It
// reads 38-40 with the bounded body free list, 45-46 with an unbounded
// sync.Pool in its place and 53-58 with a fresh buffer per request.
const warmPeakRSSMB = 64

func TestSmokeTADWarmRSS(t *testing.T) {
	const bodies, requests, callers = 2, 200, 2
	bin := buildTAD(t)
	f, want := largeSmokeTrace(t)
	cmd, base, _ := startDefaultTAD(t, bin)
	client := &http.Client{Timeout: 30 * time.Second}
	large := make([][]byte, bodies)
	for i := range large {
		large[i] = freshSmokeBody(f, i)
	}
	// i walks every kind of one body before the next body.
	request := func(i int) error {
		kind := kinds.All[i%len(kinds.All)].Name
		if err := coldRequest(client, base, kind, large[i/len(kinds.All)%bodies], want[kind]); err != nil {
			return fmt.Errorf("%s: %w", kind, err)
		}
		return nil
	}
	for _, e := range fanOut(bodies*len(kinds.All), 1, request) {
		t.Fatal("priming ", e)
	}
	primed, err := statusKB(cmd.Process.Pid, "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, e := range fanOut(requests, callers, request) {
		t.Error(e)
	}
	hwm, err := statusKB(cmd.Process.Pid, "VmHWM")
	if err != nil {
		t.Fatal(err)
	}

	var stats struct {
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
		Memory memoryStats `json:"memory"`
	}
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d warm requests in %v: VmHWM %.0f MB (%.0f MB once primed), %d hits, %d misses, memory %+v",
		requests, time.Since(start).Round(time.Millisecond), float64(hwm)/1024, float64(primed)/1024,
		stats.Cache.Hits, stats.Cache.Misses, stats.Memory)
	if stats.Cache.Misses != bodies || stats.Cache.Hits < requests {
		t.Errorf("%d misses and %d hits: the warm stream was not warm (want %d misses, at least %d hits)",
			stats.Cache.Misses, stats.Cache.Hits, bodies, requests)
	}
	if mb := hwm / 1024; mb > warmPeakRSSMB {
		t.Errorf("daemon peak RSS %d MB, over %d MB", mb, warmPeakRSSMB)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("pdt-tad exited with error after drain: %v", err)
	}
}
