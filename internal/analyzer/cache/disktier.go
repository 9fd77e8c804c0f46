package cache

// The disk tier: a second, process-restart-surviving cache level under
// the same SHA-256 content addresses as the memory tier. It stores the
// raw trace image and each rendered analysis artifact as one object
// file apiece, named <key>.<kind>, with a small CRC-framed header so a
// restore is verified before it is trusted: a corrupt or torn object is
// deleted and reported as a miss, and the caller recomputes — the tier
// can lose work, never serve wrong bytes.
//
// Writes are crash-safe by construction: the object is assembled in a
// temp file in the same directory, fsync'd, then renamed into place
// (rename is atomic on POSIX), and the directory is fsync'd so the name
// survives a power cut. A write that dies before the rename leaves only
// a .tmp- file, which the next Open sweeps away.
//
// The tier is LRU-bounded by payload bytes. Keys can be pinned (the job
// manager pins a job's trace image until the job is terminal) and
// pinned keys are skipped by the evictor. Any I/O failure latches the
// tier into a degraded state — the memory tier keeps serving, readyz
// reports "degraded" — and the first subsequent successful write clears
// it.

import (
	"container/list"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Artifact kinds stored by the disk tier. KindTrace is the raw uploaded
// image; the rest are rendered JSON artifacts keyed by the image that
// produced them.
const (
	KindTrace    = "trace"
	KindSummary  = "summary"
	KindProfile  = "profile"
	KindGaps     = "gaps"
	KindCritPath = "critpath"
	KindCycles   = "cycles"
	KindDoctor   = "doctor"
)

// diskMagic frames every object file: 4 magic bytes, CRC-32 (IEEE) of
// the payload, payload length. 16 bytes total.
var diskMagic = [4]byte{'P', 'D', 'C', '1'}

const diskHeaderSize = 16

// Disturber is the fault-injection seam the chaos harness plugs into
// disk writes; *faults.ServicePlan implements it. A nil Disturber (or a
// typed-nil plan) injects nothing.
type Disturber interface {
	// BeforeIO may block to simulate a slow disk.
	BeforeIO()
	// WriteFault is consulted once per write of n payload bytes and
	// returns how many bytes actually persist plus the injected error
	// (faults.ErrDiskFull, faults.ErrTornWrite), if any.
	WriteFault(n int) (keep int, err error)
}

// DiskStats is a point-in-time snapshot of the disk tier counters.
type DiskStats struct {
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	MaxBytes   int64  `json:"maxBytes"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Puts       uint64 `json:"puts"`
	Corrupt    uint64 `json:"corrupt"` // CRC/frame failures detected on restore; each one was deleted
	Evictions  uint64 `json:"evictions"`
	Errors     uint64 `json:"errors"`     // write-path failures (latching degraded)
	Rehydrated int    `json:"rehydrated"` // entries adopted from disk at Open
	Degraded   bool   `json:"degraded"`
	LastError  string `json:"lastError,omitempty"`
}

type diskEntry struct {
	name string // "<hexkey>.<kind>"
	key  Key
	size int64 // payload bytes (file size minus header)
	elem *list.Element
}

// DiskTier is the disk-backed cache level. Methods are safe for
// concurrent use. The zero value is not usable; call OpenDiskTier.
type DiskTier struct {
	dir      string
	maxBytes int64
	disturb  Disturber

	mu         sync.Mutex
	ll         *list.List // *diskEntry, most recently used at the front
	entries    map[string]*diskEntry
	pins       map[Key]int
	bytes      int64
	hits       uint64
	misses     uint64
	puts       uint64
	corrupt    uint64
	evictions  uint64
	errors     uint64
	rehydrated int
	degraded   bool
	lastErr    string
}

// OpenDiskTier opens (creating if needed) a disk tier rooted at dir,
// bounded to maxBytes of payload (0 = unbounded), and rehydrates its
// index from the objects already present: leftover temp files are
// removed, structurally broken objects are deleted, and the LRU order
// is recovered from file modification times. disturb may be nil.
func OpenDiskTier(dir string, maxBytes int64, disturb Disturber) (*DiskTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk tier: %w", err)
	}
	d := &DiskTier{
		dir:      dir,
		maxBytes: maxBytes,
		disturb:  disturb,
		ll:       list.New(),
		entries:  map[string]*diskEntry{},
		pins:     map[Key]int{},
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("disk tier: %w", err)
	}
	type found struct {
		e     *diskEntry
		mtime int64
	}
	var adopt []found
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if strings.HasPrefix(name, ".tmp-") {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		key, ok := parseObjName(name)
		if !ok {
			continue // not ours; leave foreign files alone
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		payload := info.Size() - diskHeaderSize
		if payload < 0 || !d.headerOK(name, payload) {
			_ = os.Remove(filepath.Join(dir, name))
			d.corrupt++
			continue
		}
		adopt = append(adopt, found{
			e:     &diskEntry{name: name, key: key, size: payload},
			mtime: info.ModTime().UnixNano(),
		})
	}
	// Oldest first, so PushFront leaves the most recent at the front.
	sort.Slice(adopt, func(i, j int) bool { return adopt[i].mtime < adopt[j].mtime })
	for _, f := range adopt {
		f.e.elem = d.ll.PushFront(f.e)
		d.entries[f.e.name] = f.e
		d.bytes += f.e.size
	}
	d.rehydrated = len(adopt)
	d.mu.Lock()
	d.evictLocked()
	d.mu.Unlock()
	return d, nil
}

// headerOK reads just the 16-byte header and checks the frame against
// the payload size on disk; the full CRC check is deferred to Get, so
// rehydrating a large cache stays cheap.
func (d *DiskTier) headerOK(name string, payload int64) bool {
	f, err := os.Open(filepath.Join(d.dir, name))
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [diskHeaderSize]byte
	if _, err := f.Read(hdr[:]); err != nil {
		return false
	}
	if [4]byte(hdr[:4]) != diskMagic {
		return false
	}
	return binary.LittleEndian.Uint64(hdr[8:16]) == uint64(payload)
}

func objName(key Key, kind string) string {
	return hex.EncodeToString(key[:]) + "." + kind
}

// parseObjName recovers the key from "<64 hex>.<kind>"; anything else
// is not one of our objects.
func parseObjName(name string) (Key, bool) {
	dot := strings.IndexByte(name, '.')
	if dot != 2*len(Key{}) || dot+1 >= len(name) {
		return Key{}, false
	}
	raw, err := hex.DecodeString(name[:dot])
	if err != nil {
		return Key{}, false
	}
	for _, c := range name[dot+1:] {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return Key{}, false
		}
	}
	return Key(raw), true
}

// Put stores one object durably: temp file, fsync, rename, directory
// fsync. Re-putting an existing object is a no-op (content addressing
// makes the payload identical by construction). Errors latch the tier
// degraded and are returned; callers treat them as "the disk tier is
// unavailable", not as request failures.
func (d *DiskTier) Put(key Key, kind string, payload []byte) error {
	name := objName(key, kind)
	d.mu.Lock()
	_, exists := d.entries[name]
	d.mu.Unlock()
	if exists {
		return nil
	}

	buf := make([]byte, diskHeaderSize+len(payload))
	copy(buf[:4], diskMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(payload)))
	copy(buf[diskHeaderSize:], payload)

	if d.disturb != nil {
		d.disturb.BeforeIO()
	}
	keep, ferr := len(buf), error(nil)
	if d.disturb != nil {
		keep, ferr = d.disturb.WriteFault(len(buf))
	}

	tmp, err := os.CreateTemp(d.dir, ".tmp-")
	if err != nil {
		return d.fail(err)
	}
	tmpName := tmp.Name()
	if ferr != nil && keep < len(buf) {
		// Torn write: persist the prefix and then "die" — no rename, so
		// the partial object is invisible and swept by the next Open.
		_, _ = tmp.Write(buf[:keep])
		_ = tmp.Close()
		return d.fail(ferr)
	}
	if ferr != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return d.fail(ferr)
	}
	if _, err := tmp.Write(buf); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return d.fail(err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return d.fail(err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return d.fail(err)
	}
	if err := os.Rename(tmpName, filepath.Join(d.dir, name)); err != nil {
		_ = os.Remove(tmpName)
		return d.fail(err)
	}
	d.syncDir()

	d.mu.Lock()
	defer d.mu.Unlock()
	d.puts++
	d.degraded = false
	d.lastErr = ""
	if _, raced := d.entries[name]; !raced {
		e := &diskEntry{name: name, key: key, size: int64(len(payload))}
		e.elem = d.ll.PushFront(e)
		d.entries[name] = e
		d.bytes += e.size
		d.evictLocked()
	}
	return nil
}

// Get restores one object, verifying the CRC frame before trusting it.
// A structurally broken or CRC-failing object is deleted and reported
// as a miss — the caller recomputes and re-spills.
func (d *DiskTier) Get(key Key, kind string) ([]byte, bool) {
	name := objName(key, kind)
	d.mu.Lock()
	e := d.entries[name]
	if e == nil {
		d.misses++
		d.mu.Unlock()
		return nil, false
	}
	d.mu.Unlock()
	if d.disturb != nil {
		d.disturb.BeforeIO()
	}
	path := filepath.Join(d.dir, name)
	raw, err := os.ReadFile(path)
	payload, ok := verifyFrame(raw)
	if err != nil || !ok {
		d.dropCorrupt(name, path)
		return nil, false
	}
	d.mu.Lock()
	if e := d.entries[name]; e != nil {
		d.ll.MoveToFront(e.elem)
	}
	d.hits++
	d.mu.Unlock()
	return payload, true
}

// verifyFrame checks magic, declared length, and CRC, returning the
// payload on success.
func verifyFrame(raw []byte) ([]byte, bool) {
	if len(raw) < diskHeaderSize || [4]byte(raw[:4]) != diskMagic {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(raw[8:16])
	if uint64(len(raw)-diskHeaderSize) != n {
		return nil, false
	}
	payload := raw[diskHeaderSize:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(raw[4:8]) {
		return nil, false
	}
	return payload, true
}

// dropCorrupt removes a failed restore from disk and the index.
func (d *DiskTier) dropCorrupt(name, path string) {
	d.mu.Lock()
	if e := d.entries[name]; e != nil {
		d.ll.Remove(e.elem)
		delete(d.entries, name)
		d.bytes -= e.size
	}
	d.corrupt++
	d.misses++
	d.mu.Unlock()
	_ = os.Remove(path)
}

// Has reports whether an object is present (without touching LRU order
// or verifying its CRC).
func (d *DiskTier) Has(key Key, kind string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.entries[objName(key, kind)]
	return ok
}

// Pin marks every object of a key as unevictable until the matching
// Unpin; pins nest. The job manager pins a job's trace image so the
// LRU cannot evict the bytes a journaled job still needs.
func (d *DiskTier) Pin(key Key) {
	d.mu.Lock()
	d.pins[key]++
	d.mu.Unlock()
}

// Unpin releases one Pin of the key.
func (d *DiskTier) Unpin(key Key) {
	d.mu.Lock()
	if d.pins[key] > 1 {
		d.pins[key]--
	} else {
		delete(d.pins, key)
	}
	d.mu.Unlock()
}

// Degraded reports whether the last write failed, with the error.
func (d *DiskTier) Degraded() (bool, string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.degraded, d.lastErr
}

// Stats snapshots the counters.
func (d *DiskTier) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DiskStats{
		Entries:    len(d.entries),
		Bytes:      d.bytes,
		MaxBytes:   d.maxBytes,
		Hits:       d.hits,
		Misses:     d.misses,
		Puts:       d.puts,
		Corrupt:    d.corrupt,
		Evictions:  d.evictions,
		Errors:     d.errors,
		Rehydrated: d.rehydrated,
		Degraded:   d.degraded,
		LastError:  d.lastErr,
	}
}

// fail latches the degraded state and passes the error through.
func (d *DiskTier) fail(err error) error {
	d.mu.Lock()
	d.errors++
	d.degraded = true
	d.lastErr = err.Error()
	d.mu.Unlock()
	return fmt.Errorf("disk tier: %w", err)
}

// syncDir fsyncs the tier directory so a rename survives power loss;
// best effort (some filesystems refuse directory fsync).
func (d *DiskTier) syncDir() {
	if f, err := os.Open(d.dir); err == nil {
		_ = f.Sync()
		_ = f.Close()
	}
}

// evictLocked removes least-recently-used, unpinned objects until the
// byte bound holds. Called with mu held; file removal happens inline
// (the entry is already gone from the index, so a racing Get misses).
func (d *DiskTier) evictLocked() {
	if d.maxBytes <= 0 {
		return
	}
	for d.bytes > d.maxBytes {
		var victim *diskEntry
		for el := d.ll.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*diskEntry)
			if d.pins[e.key] > 0 {
				continue
			}
			victim = e
			break
		}
		if victim == nil {
			return
		}
		d.ll.Remove(victim.elem)
		delete(d.entries, victim.name)
		d.bytes -= victim.size
		d.evictions++
		_ = os.Remove(filepath.Join(d.dir, victim.name))
	}
}
