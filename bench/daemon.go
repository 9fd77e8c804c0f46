package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot finds the repository root — the directory that holds
// BENCHMARK.json — at or above the working directory, so the benchmark
// works from the root (`go run -C bench .` changes into bench/) and from
// bench/ (`go test`).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory: run from the repository")
		}
		dir = parent
	}
}

// buildDaemon compiles the real pdt-tad from source into dir.
func buildDaemon(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "pdt-tad")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/pdt-tad")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/pdt-tad: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running pdt-tad with default flags (only the port is
// chosen by the kernel).
type daemon struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	logPath string
	startup time.Duration // exec to first 200 from /readyz
	idleRSS float64       // MB, before the first analysis request
}

func startDaemon(ctx context.Context, bin, dir string, conns int) (*daemon, error) {
	logf, err := os.CreateTemp(dir, "pdt-tad-*.log")
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, logPath: logf.Name(), client: &http.Client{
		Timeout: 60 * time.Second,
		// No Accept-Encoding: a CLI client posting a trace does not ask
		// for gzip, and the oracle compares the bytes as served.
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true},
	}}
	if err := d.awaitReady(ctx, t0); err != nil {
		d.stop()
		return nil, fmt.Errorf("pdt-tad did not become ready: %w\n%s", err, d.logTail())
	}
	if kb, err := procStatusKB(cmd.Process.Pid, "VmRSS"); err == nil {
		d.idleRSS = float64(kb) / 1024
	}
	return d, nil
}

// awaitReady scrapes the listen address the daemon prints, then polls
// /readyz.
func (d *daemon) awaitReady(ctx context.Context, t0 time.Time) error {
	const marker = "pdt-tad: listening on "
	deadline := t0.Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if d.base == "" {
			log, err := os.ReadFile(d.logPath)
			if err != nil {
				return err
			}
			if i := bytes.Index(log, []byte(marker)); i >= 0 {
				if addr, _, ok := bytes.Cut(log[i+len(marker):], []byte("\n")); ok {
					d.base = "http://" + string(addr)
				}
			}
		}
		if d.base != "" {
			resp, err := d.client.Get(d.base + "/readyz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					d.startup = time.Since(t0)
					return nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("timed out")
}

func (d *daemon) logTail() string {
	log, _ := os.ReadFile(d.logPath)
	if len(log) > 2000 {
		log = log[len(log)-2000:]
	}
	return string(log)
}

// stop drains the daemon with SIGTERM and kills it if that takes more
// than five seconds; it returns once the process has ended.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// post sends one analysis request and returns the reply.
func (d *daemon) post(kind string, body []byte) ([]byte, int, error) {
	resp, err := d.client.Post(d.base+"/v1/"+kind, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// get fetches a small endpoint (/healthz) and discards the body.
func (d *daemon) get(path string) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return nil
}

// cacheStats is the cache section of GET /v1/stats.
type cacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Dedups    uint64 `json:"dedups"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

func (d *daemon) stats() (cacheStats, error) {
	var out struct {
		Cache cacheStats `json:"cache"`
	}
	resp, err := d.client.Get(d.base + "/v1/stats")
	if err != nil {
		return out.Cache, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out.Cache, err
}

// procCPU returns the user+system CPU time a process has used, from
// /proc/<pid>/stat (fields 14 and 15, in 10 ms clock ticks).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis with field 3.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// procStatusKB reads one kB-valued line (VmHWM, VmRSS) of
// /proc/<pid>/status.
func procStatusKB(pid int, key string) (int64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s line", pid, key)
}
