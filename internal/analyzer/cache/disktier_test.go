package cache

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/faults"
)

func testKey(b byte) Key {
	var k Key
	for i := range k {
		k[i] = b
	}
	return k
}

func TestDiskTierPutGetRoundTrip(t *testing.T) {
	d, err := OpenDiskTier(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"hello":"world"}`)
	key := KeyOf(payload)
	if err := d.Put(key, KindSummary, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get(key, KindSummary)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := d.Get(key, KindProfile); ok {
		t.Fatal("Get of an unwritten kind hit")
	}
	if _, ok := d.Get(testKey(9), KindSummary); ok {
		t.Fatal("Get of an unwritten key hit")
	}
	st := d.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Bytes != int64(len(payload)) {
		t.Fatalf("bytes %d, want payload size %d", st.Bytes, len(payload))
	}
	// Content-addressed re-put is a no-op.
	if err := d.Put(key, KindSummary, payload); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Puts != 1 {
		t.Fatalf("re-put wrote again: %+v", st)
	}
}

// TestDiskTierSurvivesReopen is the restart story: a new tier on the
// same directory adopts the objects and serves them verified.
func TestDiskTierSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskTier(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string][]byte{
		KindTrace:   bytes.Repeat([]byte{0xAB}, 4096),
		KindSummary: []byte(`{"s":1}`),
		KindGaps:    []byte(`{"g":[]}`),
	}
	key := KeyOf(payloads[KindTrace])
	for kind, p := range payloads {
		if err := d.Put(key, kind, p); err != nil {
			t.Fatal(err)
		}
	}
	// Plant a leftover temp file: Open must sweep it.
	tmp := filepath.Join(dir, ".tmp-leftover")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDiskTier(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := d2.Stats(); st.Rehydrated != 3 || st.Entries != 3 {
		t.Fatalf("rehydration stats %+v", st)
	}
	for kind, want := range payloads {
		got, ok := d2.Get(key, kind)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("reopened Get(%s) = %v, %v", kind, ok, got)
		}
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("leftover temp file survived Open")
	}
}

// TestDiskTierCorruptRestore flips bytes in stored objects: every
// flavor of damage must be detected, deleted, and reported as a miss —
// never served.
func TestDiskTierCorruptRestore(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(b []byte) []byte
	}{
		{"payload flip", func(b []byte) []byte { b[diskHeaderSize+2] ^= 0x40; return b }},
		{"crc flip", func(b []byte) []byte { b[5] ^= 0x01; return b }},
		{"magic flip", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }},
		{"header only", func(b []byte) []byte { return b[:diskHeaderSize] }},
		{"empty file", func(b []byte) []byte { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDiskTier(dir, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte("pdt"), 64)
			key := KeyOf(payload)
			if err := d.Put(key, KindCritPath, payload); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, objName(key, KindCritPath))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := d.Get(key, KindCritPath); ok {
				t.Fatalf("corrupt object served: %q", got)
			}
			if st := d.Stats(); st.Corrupt == 0 {
				t.Fatalf("corruption not counted: %+v", st)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatal("corrupt object not deleted")
			}
			// The slot is clean again: a re-put works and verifies.
			if err := d.Put(key, KindCritPath, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := d.Get(key, KindCritPath); !ok || !bytes.Equal(got, payload) {
				t.Fatal("re-put after corruption does not serve")
			}
		})
	}
}

// TestDiskTierRehydrationDropsBrokenFrames: structurally broken objects
// (bad magic, size mismatch) are discarded at Open, not adopted.
func TestDiskTierRehydrationDropsBrokenFrames(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskTier(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := []byte("good payload")
	if err := d.Put(KeyOf(good), KindTrace, good); err != nil {
		t.Fatal(err)
	}
	// A file with our name shape but garbage content.
	bad := filepath.Join(dir, objName(testKey(1), KindTrace))
	if err := os.WriteFile(bad, []byte("not a frame at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A foreign file that is not ours: left alone.
	foreign := filepath.Join(dir, "README")
	if err := os.WriteFile(foreign, []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDiskTier(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := d2.Stats(); st.Rehydrated != 1 || st.Corrupt != 1 {
		t.Fatalf("stats %+v, want 1 adopted + 1 dropped", st)
	}
	if _, err := os.Stat(bad); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("broken object survived rehydration")
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatal("foreign file was touched")
	}
}

func TestDiskTierLRUEvictionAndPinning(t *testing.T) {
	dir := t.TempDir()
	// Budget fits two 100-byte payloads.
	d, err := OpenDiskTier(dir, 220, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(b byte) (Key, []byte) {
		p := bytes.Repeat([]byte{b}, 100)
		return KeyOf(p), p
	}
	k1, p1 := mk(1)
	k2, p2 := mk(2)
	k3, p3 := mk(3)
	if err := d.Put(k1, KindTrace, p1); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(k2, KindTrace, p2); err != nil {
		t.Fatal(err)
	}
	// Touch k1 so k2 is the LRU victim.
	if _, ok := d.Get(k1, KindTrace); !ok {
		t.Fatal("k1 missing")
	}
	if err := d.Put(k3, KindTrace, p3); err != nil {
		t.Fatal(err)
	}
	if d.Has(k2, KindTrace) {
		t.Fatal("LRU victim k2 survived")
	}
	if !d.Has(k1, KindTrace) || !d.Has(k3, KindTrace) {
		t.Fatal("wrong eviction victim")
	}

	// Pin k1; adding k4 must evict k3 (k1 is protected despite being LRU).
	d.Pin(k1)
	if _, ok := d.Get(k3, KindTrace); !ok { // make k1 the LRU
		t.Fatal("k3 missing")
	}
	k4, p4 := mk(4)
	if err := d.Put(k4, KindTrace, p4); err != nil {
		t.Fatal(err)
	}
	if !d.Has(k1, KindTrace) {
		t.Fatal("pinned key evicted")
	}
	if d.Has(k3, KindTrace) {
		t.Fatal("unpinned LRU survivor")
	}
	d.Unpin(k1)
	if st := d.Stats(); st.Evictions != 2 || st.Bytes > 220 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDiskTierDiskFullDegradesAndRecovers(t *testing.T) {
	plan := &faults.ServicePlan{DiskFulls: []faults.DiskFullRule{{After: 0, Count: 1}}}
	d, err := OpenDiskTier(t.TempDir(), 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	p := []byte("payload")
	key := KeyOf(p)
	if err := d.Put(key, KindTrace, p); !errors.Is(err, faults.ErrDiskFull) {
		t.Fatalf("Put under disk-full: %v", err)
	}
	if deg, msg := d.Degraded(); !deg || msg == "" {
		t.Fatal("tier not degraded after write failure")
	}
	if d.Has(key, KindTrace) {
		t.Fatal("failed write left an entry")
	}
	// The rule is consumed; the next write succeeds and clears degraded.
	if err := d.Put(key, KindTrace, p); err != nil {
		t.Fatal(err)
	}
	if deg, _ := d.Degraded(); deg {
		t.Fatal("tier still degraded after successful write")
	}
	if got, ok := d.Get(key, KindTrace); !ok || !bytes.Equal(got, p) {
		t.Fatal("recovered write does not serve")
	}
}

// TestDiskTierTornWriteInvisible: a torn write must never make a
// corrupt object visible — the temp file never got renamed, and the
// next Open sweeps the debris.
func TestDiskTierTornWriteInvisible(t *testing.T) {
	dir := t.TempDir()
	plan := &faults.ServicePlan{Torns: []faults.TornRule{{Nth: 1, Keep: -1}}}
	d, err := OpenDiskTier(dir, 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	p := bytes.Repeat([]byte("x"), 1000)
	key := KeyOf(p)
	if err := d.Put(key, KindTrace, p); !errors.Is(err, faults.ErrTornWrite) {
		t.Fatalf("Put under torn write: %v", err)
	}
	if d.Has(key, KindTrace) {
		t.Fatal("torn write produced a visible object")
	}
	if _, ok := d.Get(key, KindTrace); ok {
		t.Fatal("torn write served")
	}
	// The torn temp file exists on disk (the "crash" left it behind)…
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var debris int
	for _, de := range names {
		if len(de.Name()) > 5 && de.Name()[:5] == ".tmp-" {
			debris++
		}
	}
	if debris == 0 {
		t.Fatal("expected torn-write debris before reopen")
	}
	// …and the restart sweeps it.
	if _, err := OpenDiskTier(dir, 0, nil); err != nil {
		t.Fatal(err)
	}
	names, _ = os.ReadDir(dir)
	for _, de := range names {
		if len(de.Name()) > 5 && de.Name()[:5] == ".tmp-" {
			t.Fatalf("torn debris %s survived reopen", de.Name())
		}
	}
}

func TestDiskTierSlowDisk(t *testing.T) {
	plan := &faults.ServicePlan{SlowDisk: 20 * time.Millisecond}
	d, err := OpenDiskTier(t.TempDir(), 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	p := []byte("slow")
	start := time.Now()
	if err := d.Put(KeyOf(p), KindTrace, p); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("slow-disk Put returned in %v", d)
	}
}

// TestDiskTierConcurrent exercises concurrent Put/Get of overlapping
// keys under -race, including racing puts of the same object.
func TestDiskTierConcurrent(t *testing.T) {
	d, err := OpenDiskTier(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i + 1)}, 256+i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				p := payloads[(g+i)%len(payloads)]
				key := KeyOf(p)
				if err := d.Put(key, KindTrace, p); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				got, ok := d.Get(key, KindTrace)
				if ok && !bytes.Equal(got, p) {
					t.Error("Get returned wrong bytes")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := d.Stats(); st.Entries != len(payloads) {
		t.Fatalf("entries %d, want %d", st.Entries, len(payloads))
	}
}
