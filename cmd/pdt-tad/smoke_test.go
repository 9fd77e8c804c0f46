//go:build smoke

package main

// End-to-end smoke test for `make smoke-tad`: builds the real pdt-tad
// binary, starts it on a random port, and exercises the contract an
// operator relies on — 200 on a good trace, 413 over the body limit,
// 429 when saturated, and a graceful SIGTERM drain that finishes the
// in-flight request before the process exits cleanly.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestSmokeTAD(t *testing.T) {
	bin := buildTAD(t)

	golden, err := os.ReadFile("../../internal/core/testdata/golden.pdt")
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-max-body", fmt.Sprint(1<<20),
		"-max-concurrent", "1",
		"-max-queue", "0",
		"-drain", "10s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first stdout line announces the bound address.
	var addr string
	lines := bufio.NewScanner(stdout)
	if !lines.Scan() {
		t.Fatal("no startup line on stdout")
	}
	line := lines.Text()
	const prefix = "pdt-tad: listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("unexpected startup line %q", line)
	}
	addr = strings.TrimPrefix(line, prefix)
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	base := "http://" + addr
	client := &http.Client{Timeout: 10 * time.Second}

	// Probes answer.
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := client.Get(base + probe)
		if err != nil {
			t.Fatalf("GET %s: %v", probe, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", probe, resp.StatusCode)
		}
	}

	// Golden trace → 200 with a summary.
	resp, err := client.Post(base+"/v1/summary", "application/octet-stream",
		bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("golden trace: status %d: %s", resp.StatusCode, body)
	}
	var sum map[string]any
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatalf("summary not JSON: %v", err)
	}
	if _, ok := sum["workload"]; !ok {
		t.Fatalf("summary missing workload: %s", body)
	}

	// Over the body limit → 413.
	resp, err = client.Post(base+"/v1/summary", "application/octet-stream",
		bytes.NewReader(make([]byte, 2<<20)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d", resp.StatusCode)
	}

	// Saturate the single slot with a slow upload: the handler admits
	// before reading the body, so a stalled body pins the slot.
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fmt.Fprintf(slow, "POST /v1/summary HTTP/1.1\r\nHost: pdt-tad\r\n"+
		"Content-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n",
		len(golden))
	if _, err := slow.Write(golden[:16]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let it claim the slot

	// Slot busy, queue zero → immediate 429.
	resp, err = client.Post(base+"/v1/summary", "application/octet-stream",
		bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d, want 429", resp.StatusCode)
	}

	// Graceful drain: SIGTERM with a request in flight. The server must
	// finish that request before exiting.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if _, err := slow.Write(golden[16:]); err != nil {
		t.Fatalf("finishing in-flight upload during drain: %v", err)
	}
	drained, err := http.ReadResponse(bufio.NewReader(slow), nil)
	if err != nil {
		t.Fatalf("reading in-flight response during drain: %v", err)
	}
	io.Copy(io.Discard, drained.Body)
	drained.Body.Close()
	if drained.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200", drained.StatusCode)
	}
	slow.Close()

	// The process must exit cleanly within the drain budget.
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("pdt-tad exited with error after drain: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("pdt-tad did not exit within the drain budget")
	}
}
