package main

// The multi-replica chaos suite (make chaos-cluster). Three in-process
// replicas form a ring; the suite cuts links mid-request, crashes a
// replica outright, and asserts the acceptance contract: every request
// — in-flight and subsequent — answers 200 with bytes identical to a
// single-node deployment, the cut peer's breaker opens on the survivors,
// and re-closes once the partition heals. Run under -race: the fault
// plan is mutated from the test while request goroutines consult it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/cluster"
	"github.com/celltrace/pdt/internal/faults"
	"github.com/celltrace/pdt/internal/jobs"
)

// chaosRing builds n replicas, each with an armed, runtime-mutable
// fault plan; plans[i] is replica i's view of the network.
func chaosRing(t *testing.T, n int, mut func(i int, cfg *config)) ([]*server, []string, []*faults.ServicePlan) {
	t.Helper()
	plans := make([]*faults.ServicePlan, n)
	servers, urls := ringServers(t, n, func(i int, cfg *config) {
		plans[i] = &faults.ServicePlan{}
		cfg.chaos = plans[i]
		if mut != nil {
			mut(i, cfg)
		}
	})
	return servers, urls, plans
}

// chaosTraces builds distinct trace images so ownership spreads across
// the ring, plus their single-node golden summaries.
func chaosTraces(t *testing.T) (traces, golden [][]byte) {
	t.Helper()
	for _, p := range []map[string]string{
		{"w": "64", "h": "32", "maxiter": "32"},
		{"w": "48", "h": "48", "maxiter": "24"},
		{"w": "80", "h": "24", "maxiter": "16"},
		{"w": "32", "h": "64", "maxiter": "40"},
	} {
		traces = append(traces, traceBytes(t, p))
	}
	_, single := testServer(t, nil)
	for _, tr := range traces {
		resp, b := post(t, single.URL+"/v1/summary", tr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("golden: %d: %s", resp.StatusCode, b)
		}
		golden = append(golden, b)
	}
	return traces, golden
}

// TestChaosClusterPartitionMidRequest is the acceptance scenario: one
// of three replicas is partitioned away while requests are in flight.
func TestChaosClusterPartitionMidRequest(t *testing.T) {
	traces, golden := chaosTraces(t)
	servers, urls, plans := chaosRing(t, 3, func(i int, cfg *config) {
		cfg.peer.Attempts = 1
		cfg.peer.BreakerThreshold = 2
		cfg.peer.BreakerCooldown = 150 * time.Millisecond
	})
	victim := ownerOf(t, servers, traces[0])
	victimName := servers[victim].cluster.Self()
	var survivors []int
	var survivorNames []string
	for i, s := range servers {
		if i != victim {
			survivors = append(survivors, i)
			survivorNames = append(survivorNames, s.cluster.Self())
		}
	}

	// Flood every replica with every trace while the partition lands
	// halfway through. One goroutine per (replica, trace) keeps each
	// replica inside its admission budget, so a non-200 can only mean a
	// real failure, never load shedding.
	const perWorker = 12
	var wg sync.WaitGroup
	var wrong atomic.Int32
	for ri := range servers {
		for ti := range traces {
			wg.Add(1)
			go func(ri, ti int) {
				defer wg.Done()
				for n := 0; n < perWorker; n++ {
					resp, err := http.Post(urls[ri]+"/v1/summary", "application/octet-stream", bytes.NewReader(traces[ti]))
					if err != nil {
						wrong.Add(1)
						t.Errorf("replica %d trace %d: %v", ri, ti, err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || !bytes.Equal(body, golden[ti]) {
						wrong.Add(1)
						t.Errorf("replica %d trace %d req %d: status %d, identical=%v",
							ri, ti, n, resp.StatusCode, bytes.Equal(body, golden[ti]))
						return
					}
				}
			}(ri, ti)
		}
	}
	// Land the partition mid-flood, on every replica's plan at once.
	time.Sleep(50 * time.Millisecond)
	for _, p := range plans {
		p.Partition([]string{victimName}, survivorNames)
	}
	wg.Wait()
	if wrong.Load() != 0 {
		t.Fatalf("%d requests failed the contract during the partition", wrong.Load())
	}

	// Survivors' breakers toward the victim must open: keep poking keys
	// the victim owns until the consecutive-failure threshold trips.
	victimTrace := -1
	for ti := range traces {
		if ownerOf(t, servers, traces[ti]) == victim {
			victimTrace = ti
			break
		}
	}
	if victimTrace < 0 {
		t.Fatal("no trace owned by the victim")
	}
	for _, si := range survivors {
		// Fresh keys force peer consults (cached ones serve locally).
		br := servers[si].cluster.Breaker(victimName)
		deadline := time.Now().Add(5 * time.Second)
		for n := 0; br.State() != cluster.StateOpen; n++ {
			if time.Now().After(deadline) {
				t.Fatalf("survivor %d: breaker toward %s never opened", si, victimName)
			}
			tr := traceBytes(t, map[string]string{"w": fmt.Sprint(16 * (7 + n)), "h": "16", "maxiter": "16"})
			if ownerOf(t, servers, tr) != victim {
				continue
			}
			resp, err := http.Post(urls[si]+"/v1/summary", "application/octet-stream", bytes.NewReader(tr))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("survivor %d answered %d during partition", si, resp.StatusCode)
			}
		}
		// Degraded is visible, readiness is not failed.
		resp, err := http.Get(urls[si] + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("survivor %d readyz %d during partition", si, resp.StatusCode)
		}
		if !bytes.Contains(body, []byte("degraded")) {
			t.Fatalf("survivor %d readyz %q does not say degraded", si, body)
		}
	}

	// Heal. After the cooldown the next fetch is the half-open probe;
	// its success must re-close the breaker on every survivor.
	for _, p := range plans {
		p.Heal()
	}
	time.Sleep(200 * time.Millisecond)
	for _, si := range survivors {
		br := servers[si].cluster.Breaker(victimName)
		deadline := time.Now().Add(5 * time.Second)
		for n := 0; br.State() != cluster.StateClosed; n++ {
			if time.Now().After(deadline) {
				t.Fatalf("survivor %d: breaker toward %s never re-closed after heal", si, victimName)
			}
			tr := traceBytes(t, map[string]string{"w": fmt.Sprint(16 * (7 + n)), "h": "20", "maxiter": "16"})
			if ownerOf(t, servers, tr) != victim {
				continue
			}
			resp, err := http.Post(urls[si]+"/v1/summary", "application/octet-stream", bytes.NewReader(tr))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("survivor %d answered %d after heal", si, resp.StatusCode)
			}
		}
		if reason := servers[si].degradedReason(); reason != "" {
			t.Fatalf("survivor %d still degraded after heal: %s", si, reason)
		}
	}
}

// TestChaosClusterReplicaCrashMidRequest kills a replica's listener
// outright (connection refused, not a polite drop) while requests are
// in flight on the survivors.
func TestChaosClusterReplicaCrashMidRequest(t *testing.T) {
	traces, golden := chaosTraces(t)
	servers, urls, tss := ringServersTS(t, 3, func(i int, cfg *config) {
		cfg.peer.Attempts = 1
		cfg.peer.BreakerThreshold = 2
	})
	victim := ownerOf(t, servers, traces[0])

	var wg sync.WaitGroup
	var wrong atomic.Int32
	for ri := range servers {
		if ri == victim {
			continue
		}
		for ti := range traces {
			wg.Add(1)
			go func(ri, ti int) {
				defer wg.Done()
				for n := 0; n < 10; n++ {
					resp, err := http.Post(urls[ri]+"/v1/summary", "application/octet-stream", bytes.NewReader(traces[ti]))
					if err != nil {
						wrong.Add(1)
						t.Errorf("replica %d trace %d: %v", ri, ti, err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || !bytes.Equal(body, golden[ti]) {
						wrong.Add(1)
						t.Errorf("replica %d trace %d: status %d", ri, ti, resp.StatusCode)
						return
					}
				}
			}(ri, ti)
		}
	}
	time.Sleep(30 * time.Millisecond)
	tss[victim].CloseClientConnections()
	tss[victim].Close()
	wg.Wait()
	if wrong.Load() != 0 {
		t.Fatalf("%d requests failed the contract after the crash", wrong.Load())
	}
}

// TestChaosClusterNoDuplicateJobs submits the same trace as an async
// job on every replica during a partition: each replica journals and
// executes its own job exactly once — the ring must not re-run or
// double-deliver work because the network is down.
func TestChaosClusterNoDuplicateJobs(t *testing.T) {
	traces, golden := chaosTraces(t)
	stateDirs := make([]string, 3)
	servers, urls, plans := chaosRing(t, 3, func(i int, cfg *config) {
		stateDirs[i] = t.TempDir()
		cfg.stateDir = stateDirs[i]
		cfg.peer.Attempts = 1
	})
	victim := ownerOf(t, servers, traces[0])
	victimName := servers[victim].cluster.Self()
	var survivorNames []string
	for i, s := range servers {
		if i != victim {
			survivorNames = append(survivorNames, s.cluster.Self())
		}
	}
	for _, p := range plans {
		p.Partition([]string{victimName}, survivorNames)
	}

	ids := make([]string, len(servers))
	for i := range servers {
		resp, body := post(t, urls[i]+"/v1/jobs?kind=summary", traces[0])
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("replica %d: submit %d: %s", i, resp.StatusCode, body)
		}
		var jb jobs.Job
		if err := json.Unmarshal(body, &jb); err != nil {
			t.Fatal(err)
		}
		ids[i] = jb.ID
	}
	for i, id := range ids {
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(urls[i] + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var jb jobs.Job
			if err := json.NewDecoder(resp.Body).Decode(&jb); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if jb.Status == jobs.StatusDone {
				break
			}
			if jb.Status == jobs.StatusFailed || time.Now().After(deadline) {
				t.Fatalf("replica %d job %s: %s", i, id, jb.Status)
			}
			time.Sleep(20 * time.Millisecond)
		}
		// The result is the same bytes a single node computes.
		resp, err := http.Get(urls[i] + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, golden[0]) {
			t.Fatalf("replica %d result: %d, identical=%v", i, resp.StatusCode, bytes.Equal(body, golden[0]))
		}
		// Exactly one execution in the journal: one start, one done.
		raw, err := os.ReadFile(filepath.Join(stateDirs[i], "jobs.journal"))
		if err != nil {
			t.Fatal(err)
		}
		if n := countJournalOps(raw, id, "start"); n != 1 {
			t.Fatalf("replica %d job %s: %d starts", i, id, n)
		}
		if n := countJournalOps(raw, id, "done"); n != 1 {
			t.Fatalf("replica %d job %s: %d dones", i, id, n)
		}
	}
}
