package integration

// Disk-fault sweep over the durable tier: every service-level disk fault
// a chaos plan can inject (disk-full, slow-disk, torn-write) plus
// on-disk corruption is driven through the full cache + job stack, and
// in every case the caller-visible result must be correct bytes — the
// faults may cost performance or durability, never answers.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/faults"
	"github.com/celltrace/pdt/internal/harness"
	"github.com/celltrace/pdt/internal/jobs"
)

func chaosTrace(t *testing.T, events int) []byte {
	t.Helper()
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic",
		Params:   map[string]string{"events": fmt.Sprint(events), "gap": "100"},
		Trace:    &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.TraceBytes
}

// TestChaosDiskFaultSweep: for each injected fault plan, every analysis
// kind must still return bytes identical to a fault-free run; a plan
// that fails writes must have failed at least one, and a slow disk must
// slow a read.
func TestChaosDiskFaultSweep(t *testing.T) {
	data := chaosTrace(t, 2000)
	ctx := context.Background()

	// Fault-free baseline, memory-only.
	baseline := map[string][]byte{}
	cleanCache := cache.New(0, 0)
	for _, kind := range cache.AnalysisKinds {
		b, err := cleanCache.Artifact(ctx, data, kind, analyzer.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		baseline[kind] = b
	}

	// Each case's name spells its plan compactly (rule:args), so a -run
	// filter can pick one.
	plans := []struct {
		spec  string
		plan  *faults.ServicePlan
		fails bool // the tier must count a failed write
	}{
		// every tier write fails
		{"diskfull:0:*", &faults.ServicePlan{DiskFulls: []faults.DiskFullRule{{After: 0, Count: faults.EveryTime}}}, true},
		// one write fails once two bytes are on disk, then the tier recovers
		{"diskfull:2", &faults.ServicePlan{DiskFulls: []faults.DiskFullRule{{After: 2, Count: 1}}}, true},
		{"torn:1", &faults.ServicePlan{Torns: []faults.TornRule{{Nth: 1, Keep: -1}}}, true},
		{"torn:3:1", &faults.ServicePlan{Torns: []faults.TornRule{{Nth: 3, Keep: 1}}}, true},
		{"slowdisk:1", &faults.ServicePlan{SlowDisk: time.Millisecond}, false},
		// compound
		{"diskfull:1,slowdisk:1", &faults.ServicePlan{DiskFulls: []faults.DiskFullRule{{After: 1, Count: 1}}, SlowDisk: time.Millisecond}, true},
	}
	for _, tc := range plans {
		spec := tc.spec
		t.Run(spec, func(t *testing.T) {
			dir := t.TempDir()
			tier, err := cache.OpenDiskTier(dir, 0, tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			c := cache.New(0, 0)
			c.AttachDisk(tier)
			for round := 0; round < 2; round++ {
				for _, kind := range cache.AnalysisKinds {
					b, err := c.Artifact(ctx, data, kind, analyzer.Limits{})
					if err != nil {
						t.Fatalf("round %d %s under %q: %v", round, kind, spec, err)
					}
					if !bytes.Equal(b, baseline[kind]) {
						t.Fatalf("round %d %s under %q: wrong bytes", round, kind, spec)
					}
				}
			}
			if st := tier.Stats(); tc.fails && st.Errors == 0 {
				t.Fatalf("plan %q never failed a write: %+v", spec, st)
			}
			if slow := tc.plan.SlowDisk; slow > 0 {
				start := time.Now()
				_, ok := tier.Get(cache.KeyOf(data), cache.KindTrace)
				if took := time.Since(start); !ok || took < slow {
					t.Fatalf("plan %q: reading the trace back took %v (found %v), want at least %v", spec, took, ok, slow)
				}
			}
			// Whatever did land on disk must serve a clean reopen
			// byte-identically too (or recompute transparently).
			tier2, err := cache.OpenDiskTier(dir, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			c2 := cache.New(0, 0)
			c2.AttachDisk(tier2)
			for _, kind := range cache.AnalysisKinds {
				b, err := c2.Artifact(ctx, data, kind, analyzer.Limits{})
				if err != nil {
					t.Fatalf("reopen %s after %q: %v", kind, spec, err)
				}
				if !bytes.Equal(b, baseline[kind]) {
					t.Fatalf("reopen %s after %q: wrong bytes", kind, spec)
				}
			}
		})
	}
}

// TestChaosScribbleSweep corrupts every object the disk tier persisted
// — one at a time, several scribble patterns — and demands the tiers
// recompute the right answer instead of serving or propagating damage.
func TestChaosScribbleSweep(t *testing.T) {
	data := chaosTrace(t, 1500)
	ctx := context.Background()

	dir := t.TempDir()
	tier, err := cache.OpenDiskTier(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(0, 0)
	c.AttachDisk(tier)
	baseline := map[string][]byte{}
	for _, kind := range cache.AnalysisKinds {
		b, err := c.Artifact(ctx, data, kind, analyzer.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		baseline[kind] = b
	}

	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no persisted objects to scribble on (%v)", err)
	}
	scribbles := []func([]byte) []byte{
		func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b }, // payload flip
		func(b []byte) []byte { return b[:len(b)/2] },           // truncate
		func(b []byte) []byte { b[0] ^= 0x01; return b },        // magic flip
		func(b []byte) []byte { return append(b, 0xde, 0xad) },  // trailing junk
	}
	for _, name := range names {
		for si, scribble := range scribbles {
			pristine, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			damaged := scribble(append([]byte(nil), pristine...))
			if err := os.WriteFile(name, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			// Fresh process over the damaged directory.
			tier2, err := cache.OpenDiskTier(dir, 0, nil)
			if err != nil {
				t.Fatalf("open over scribbled %s: %v", filepath.Base(name), err)
			}
			c2 := cache.New(0, 0)
			c2.AttachDisk(tier2)
			for _, kind := range cache.AnalysisKinds {
				b, err := c2.Artifact(ctx, data, kind, analyzer.Limits{})
				if err != nil {
					t.Fatalf("scribble %d on %s, kind %s: %v", si, filepath.Base(name), kind, err)
				}
				if !bytes.Equal(b, baseline[kind]) {
					t.Fatalf("scribble %d on %s, kind %s: wrong bytes served", si, filepath.Base(name), kind)
				}
			}
			// Restore for the next pattern.
			if err := os.WriteFile(name, pristine, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestChaosJobKillMatrixConverges drives the job manager (no HTTP)
// through a kill at every phase with the real analyzer underneath,
// asserting byte-level convergence of the journaled result CRC.
func TestChaosJobKillMatrixConverges(t *testing.T) {
	data := chaosTrace(t, 1500)
	ctx := context.Background()

	// Uninterrupted baseline through the same tiered stack.
	cleanDir := t.TempDir()
	cleanTier, err := cache.OpenDiskTier(cleanDir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cleanCache := cache.New(0, 0)
	cleanCache.AttachDisk(cleanTier)
	want, err := cleanCache.Artifact(ctx, data, cache.KindCritPath, analyzer.Limits{})
	if err != nil {
		t.Fatal(err)
	}

	for _, phase := range jobs.Phases {
		if phase == jobs.PhaseWebhook {
			continue // no webhook in this matrix; the HTTP-level test covers it
		}
		t.Run(phase, func(t *testing.T) {
			dir := t.TempDir()
			tier, err := cache.OpenDiskTier(filepath.Join(dir, "objects"), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			c := cache.New(0, 0)
			c.AttachDisk(tier)
			key := cache.KeyOf(data)
			if err := tier.Put(key, cache.KindTrace, data); err != nil {
				t.Fatal(err)
			}
			plan := &faults.ServicePlan{Kills: []faults.KillRule{{Phase: phase, Nth: 1}}}
			mkConfig := func(kill bool) jobs.Config {
				cfg := jobs.Config{
					Workers:     1,
					BackoffBase: time.Millisecond,
					BackoffCap:  2 * time.Millisecond,
					Fetch: func(k string) ([]byte, bool) {
						pk, ok := cache.ParseKey(k)
						if !ok {
							return nil, false
						}
						return c.RawImage(pk)
					},
					Exec: func(ctx context.Context, kind string, img []byte) ([]byte, error) {
						return c.Artifact(ctx, img, kind, analyzer.Limits{})
					},
				}
				if kill {
					cfg.PhaseHook = func(id, ph string) error {
						if plan.Kill(ph) {
							return fmt.Errorf("chaos kill at %s", ph)
						}
						return nil
					}
				}
				return cfg
			}

			journalFile := filepath.Join(dir, "jobs.journal")
			j1, recs, st, err := jobs.OpenJournal(journalFile, nil)
			if err != nil {
				t.Fatal(err)
			}
			m1 := jobs.New(j1, recs, st, mkConfig(true))
			m1.Start()
			_, _ = m1.Submit(cache.KindCritPath, key.String(), "")
			deadline := time.Now().Add(5 * time.Second)
			for !m1.Crashed() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if !m1.Crashed() {
				t.Fatal("kill never fired")
			}
			m1.Stop()
			j1.Close()

			j2, recs, st, err := jobs.OpenJournal(journalFile, nil)
			if err != nil {
				t.Fatal(err)
			}
			m2 := jobs.New(j2, recs, st, mkConfig(false))
			m2.Start()
			defer func() { m2.Stop(); j2.Close() }()
			adopted := m2.Jobs()
			if len(adopted) != 1 {
				t.Fatalf("adopted %d jobs", len(adopted))
			}
			id := adopted[0].ID
			deadline = time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				if jb, ok := m2.Get(id); ok && jb.Status == jobs.StatusDone {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			jb, _ := m2.Get(id)
			if jb.Status != jobs.StatusDone {
				t.Fatalf("replayed job never finished: %+v", jb)
			}
			got, err := c.Artifact(ctx, data, cache.KindCritPath, analyzer.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("kill at %s: result diverged from uninterrupted run", phase)
			}
		})
	}
}
