// pdt-load replays the workload suite's traces against one or more
// pdt-tad replicas at a fixed concurrency and reports the latency
// distribution. It is the CI load gate for the daemon: the run fails on
// any transport error or 5xx response, and — when -p99-budget is set —
// on a p99 latency above the budget. 429/503 shedding under deliberate
// overload is counted separately and does not fail the run as long as
// some requests got through; a saturated daemon that sheds cleanly is
// behaving, one that times out or 500s is not.
//
// Usage:
//
//	pdt-load -targets http://h1:8329,http://h2:8329 -requests 200
//	pdt-load -targets http://h1:8329 -workloads julia,matmul -kinds summary,profile
//	pdt-load -targets http://h1:8329 -p99-budget 500ms
//
// Traces are generated in-process at startup (one per selected
// workload, at its workloads.Small size) and replayed round-robin over
// targets × workloads × kinds, so a multi-replica ring sees a mix of
// keys it owns and keys its peers own.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/harness"
	"github.com/celltrace/pdt/internal/workloads"
)

// summary is the JSON document printed after a run.
type summary struct {
	Targets     []string `json:"targets"`
	Workloads   []string `json:"workloads"`
	Kinds       []string `json:"kinds"`
	Requests    int      `json:"requests"`
	OK          int      `json:"ok"`
	Shed        int      `json:"shed"`
	Failures    int      `json:"failures"`
	Elapsed     string   `json:"elapsed"`
	RPS         float64  `json:"rps"`
	P50ms       float64  `json:"p50_ms"`
	P95ms       float64  `json:"p95_ms"`
	P99ms       float64  `json:"p99_ms"`
	MaxMs       float64  `json:"max_ms"`
	P99BudgetMs float64  `json:"p99_budget_ms,omitempty"`
	Errors      []string `json:"errors,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pdt-load:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pdt-load", flag.ContinueOnError)
	var (
		targetSpec  = fs.String("targets", "", "comma-separated replica base URLs (required)")
		wlSpec      = fs.String("workloads", "all", "comma-separated workloads to replay, or \"all\"")
		kindSpec    = fs.String("kinds", "summary", "comma-separated analysis kinds to request")
		requests    = fs.Int("requests", 120, "total requests to send")
		concurrency = fs.Int("concurrency", 8, "in-flight requests")
		p99Budget   = fs.Duration("p99-budget", 0, "fail when p99 latency exceeds this (0 = report only)")
		timeout     = fs.Duration("timeout", 15*time.Second, "per-request deadline")
		streamMode  = fs.Bool("stream", false, "replay through chunked-upload sessions (/v1/upload) instead of whole-body POSTs")
		chunkBytes  = fs.Int("chunk-bytes", 64<<10, "upload chunk size in stream mode")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets, err := splitTargets(*targetSpec)
	if err != nil {
		return err
	}
	names, err := splitWorkloads(*wlSpec)
	if err != nil {
		return err
	}
	kinds := strings.Split(*kindSpec, ",")
	if *streamMode {
		// One streamed session yields the summary; -kinds does not apply.
		kinds = []string{"upload"}
		if *chunkBytes <= 0 {
			return fmt.Errorf("-chunk-bytes must be positive")
		}
	} else {
		// Any synchronous single-trace endpoint can be targeted (diff is
		// excluded: it takes a two-trace body).
		for _, k := range kinds {
			if !cache.ValidKind(k) {
				return fmt.Errorf("unknown analysis kind %q", k)
			}
		}
	}
	if *requests <= 0 || *concurrency <= 0 {
		return fmt.Errorf("-requests and -concurrency must be positive")
	}

	traces := make([][]byte, len(names))
	for i, name := range names {
		cfg := core.DefaultTraceConfig()
		res, err := harness.Run(harness.Spec{Workload: name, Params: workloads.Small(name), Trace: &cfg})
		if err != nil {
			return fmt.Errorf("generating %s trace: %w", name, err)
		}
		traces[i] = res.TraceBytes
	}

	client := &http.Client{Timeout: *timeout}
	var (
		next      atomic.Int64
		mu        sync.Mutex
		latencies []time.Duration
		shed      int
		failures  []string
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *requests {
					return
				}
				target := targets[i%len(targets)]
				trace := traces[i%len(traces)]
				kind := kinds[i%len(kinds)]
				if *streamMode {
					t0 := time.Now()
					shedded, err := streamOnce(client, target, trace, *chunkBytes, i)
					dur := time.Since(t0)
					mu.Lock()
					switch {
					case err != nil:
						failures = append(failures, err.Error())
					case shedded:
						shed++
					default:
						latencies = append(latencies, dur)
					}
					mu.Unlock()
					continue
				}
				t0 := time.Now()
				resp, err := client.Post(target+"/v1/"+kind,
					"application/octet-stream", bytes.NewReader(trace))
				dur := time.Since(t0)
				if err != nil {
					mu.Lock()
					failures = append(failures, err.Error())
					mu.Unlock()
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				switch {
				case resp.StatusCode == http.StatusOK:
					latencies = append(latencies, dur)
				case resp.StatusCode == http.StatusTooManyRequests ||
					resp.StatusCode == http.StatusServiceUnavailable:
					shed++
				default:
					failures = append(failures, fmt.Sprintf("%s /v1/%s: status %d",
						target, kind, resp.StatusCode))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	sum := summary{
		Targets:   targets,
		Workloads: names,
		Kinds:     kinds,
		Requests:  *requests,
		OK:        len(latencies),
		Shed:      shed,
		Failures:  len(failures),
		Elapsed:   elapsed.Round(time.Millisecond).String(),
		RPS:       float64(*requests) / elapsed.Seconds(),
		P50ms:     ms(percentile(latencies, 0.50)),
		P95ms:     ms(percentile(latencies, 0.95)),
		P99ms:     ms(percentile(latencies, 0.99)),
		MaxMs:     ms(percentile(latencies, 1.0)),
	}
	if *p99Budget > 0 {
		sum.P99BudgetMs = ms(*p99Budget)
	}
	// Cap the error sample so a total outage doesn't dump thousands of
	// identical lines into the summary.
	for i, f := range failures {
		if i == 5 {
			sum.Errors = append(sum.Errors, fmt.Sprintf("... and %d more", len(failures)-5))
			break
		}
		sum.Errors = append(sum.Errors, f)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		return err
	}

	if len(failures) > 0 {
		return fmt.Errorf("%d of %d requests failed (first: %s)",
			len(failures), *requests, failures[0])
	}
	if len(latencies) == 0 {
		return fmt.Errorf("all %d requests were shed; nothing measured", *requests)
	}
	if *p99Budget > 0 {
		if p99 := percentile(latencies, 0.99); p99 > *p99Budget {
			return fmt.Errorf("p99 %s over budget %s", p99.Round(time.Millisecond), *p99Budget)
		}
	}
	return nil
}

// splitTargets parses the -targets list: absolute http(s) URLs, no
// trailing slash, at least one.
func splitTargets(spec string) ([]string, error) {
	if spec == "" {
		return nil, fmt.Errorf("-targets is required")
	}
	var targets []string
	for _, raw := range strings.Split(spec, ",") {
		raw = strings.TrimSuffix(strings.TrimSpace(raw), "/")
		u, err := url.Parse(raw)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("target %q is not an absolute http(s) URL", raw)
		}
		targets = append(targets, raw)
	}
	return targets, nil
}

// splitWorkloads resolves the -workloads list against the workload
// registry; "all" selects every registered workload, sorted.
func splitWorkloads(spec string) ([]string, error) {
	if spec == "all" {
		return workloads.Names(), nil
	}
	names := strings.Split(spec, ",")
	for _, n := range names {
		if _, err := workloads.New(n); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// percentile returns the q-quantile of sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
