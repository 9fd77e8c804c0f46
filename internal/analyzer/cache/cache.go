// Package cache provides a content-addressed, size-bounded LRU cache of
// loaded traces and their rendered artifacts, with singleflight-style
// deduplication of concurrent loads. pdt-tad's endpoints sit on top of it
// so a repeated upload of the same trace bytes skips parsing, decoding,
// merging and analysis entirely.
//
// Keying is by SHA-256 of the raw trace image, so identical uploads share
// one entry regardless of client or endpoint, and a single flipped byte
// addresses a different entry. An entry holds the loaded trace and one
// map of artifact bytes per kind, whoever produced them: a render, the
// doctor, a diff, a peer replica or a streaming upload. Both are weighed
// exactly: the trace by its Footprint, the bytes by their capacity. A
// doctor entry holds only its report's bytes, not the trace it salvaged,
// and a diff's bytes live on the entry of its pair key (PairKey).
//
// Entries are evicted least-recently-used once the cache exceeds its
// entry or byte bound; an entry with a load still in flight is pinned and
// skipped by the evictor, so the bound applies to retained entries
// (concurrent distinct loads can transiently exceed it — the requests
// must be served either way). Load failures are never cached: the flight
// is removed on settle, so the next request for those bytes retries.
//
// The cached *Trace is shared by every request that hits its entry. It is
// validated exactly once, when the load settles (analyzer.Validate
// appends to the trace and must not run concurrently), and is read-only
// from then on. Concurrent requests for one kind of one trace share one
// render, whose bytes are kept and whose kernel value is not; the first
// bytes stored for a kind are the ones every later request gets. Callers
// must not mutate anything a Handle or an artifact lookup returns.
package cache

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/kinds"
)

// Key is the content address of a trace image: SHA-256 over its bytes.
type Key [sha256.Size]byte

// KeyOf hashes a trace image.
func KeyOf(data []byte) Key { return sha256.Sum256(data) }

// PairKey addresses what is derived from two images in order, such as
// their diff: SHA-256 over key a then key b.
func PairKey(a, b Key) Key { return sha256.Sum256(append(a[:], b[:]...)) }

// String renders the key as lowercase hex (the disk tier's and the job
// journal's on-disk spelling).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex spelling back into a Key.
func ParseKey(s string) (Key, bool) {
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(Key{}) {
		return Key{}, false
	}
	return Key(raw), true
}

// Image is a trace image together with its content address. The fields
// are unexported and the only constructors hash the bytes they hold, so
// a key that does not belong to its bytes cannot be built outside this
// package: whoever has an Image may skip the hash, nobody else can.
type Image struct {
	data []byte
	key  Key
}

// ImageOf hashes a trace image already in memory.
func ImageOf(data []byte) Image { return Image{data: data, key: KeyOf(data)} }

// Data returns the image bytes; Key their content address.
func (im Image) Data() []byte { return im.data }
func (im Image) Key() Key     { return im.key }

// ReadImage reads r to EOF like ReadSized, into buf when buf is large
// enough, and hashes each read as it lands, so the key is ready with the
// last byte and the image is walked once.
func ReadImage(r io.Reader, hint int64, buf []byte) (Image, error) {
	h := sha256.New()
	data, err := ReadSized(r, hint, h, buf)
	if err != nil {
		return Image{}, err
	}
	im := Image{data: data}
	h.Sum(im.key[:0])
	return im, nil
}

// trustedAfter is how much of a declared length ReadSized allocates
// before the sender has delivered anything. A sender that announces far
// more than it sends costs this much, not what it announced.
const trustedAfter = 1 << 20

// ReadSized reads r to EOF into a buffer and feeds every read to sink
// (nil = none) as it lands. The buffer is buf, a spare the caller lends
// (nil = none), when buf already holds hint+1 bytes, hint being the
// sender's declared length, or with no hint when buf has any room: a
// spare never lets a declared length skip its trust. Otherwise the
// buffer is sized from hint: hint+1 bytes — the spare one is room for
// the read that reports EOF — so an honest length never regrows; a hint
// over trustedAfter gets that much first and the rest, in one jump, once
// the first part has filled. With no hint (hint <= 0), or past a hint
// that was too small, it starts at 512 bytes (or at buf) and grows by
// append, as io.ReadAll does. r's error comes back as it is.
func ReadSized(r io.Reader, hint int64, sink io.Writer, buf []byte) ([]byte, error) {
	if cap(buf) == 0 || int64(cap(buf)) <= hint {
		first := int64(512)
		switch {
		case hint > trustedAfter:
			first = trustedAfter
		case hint > 0:
			first = hint + 1
		}
		buf = make([]byte, 0, first)
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			if int64(cap(buf)) <= hint {
				buf = append(make([]byte, 0, hint+1), buf...)
			} else {
				buf = append(buf, 0)[:len(buf)]
			}
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		if sink != nil && n > 0 {
			if _, werr := sink.Write(buf[len(buf) : len(buf)+n]); werr != nil {
				return nil, werr
			}
		}
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts requests served from a settled entry; Misses counts
	// requests that had to run the load themselves; Dedups counts
	// requests that piggybacked on another request's in-flight load.
	Hits, Misses, Dedups uint64
	// Evictions counts entries removed by the LRU bound.
	Evictions uint64
	// Entries and Bytes describe current retention; MaxEntries/MaxBytes
	// are the configured bounds (0 = unbounded).
	Entries    int
	Bytes      int64
	MaxEntries int
	MaxBytes   int64
}

// Cache is the content-addressed trace cache. The zero value is not
// usable; call New.
type Cache struct {
	maxEntries int
	maxBytes   int64
	// disk is the optional second tier; see AttachDisk. Artifacts and
	// raw images are written through to it so a warm cache survives a
	// process restart, and restores are CRC-verified so a corrupt
	// object recomputes instead of serving wrong bytes.
	disk *DiskTier

	mu        sync.Mutex
	ll        *list.List // *entry, most recently used at the front
	entries   map[Key]*entry
	bytes     int64
	hits      uint64
	misses    uint64
	dedups    uint64
	evictions uint64
	// renders holds, per key and kind, the render in progress; its
	// channel closes when that render ends.
	renders map[renderKey]chan struct{}
}

// renderKey names one artifact render: a content address and a kind.
type renderKey struct {
	key  Key
	kind string
}

// New builds a cache bounded to maxEntries entries and maxBytes of
// weight — each entry's loaded trace and artifact bytes (each 0 =
// unbounded on that axis).
func New(maxEntries int, maxBytes int64) *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		entries:    map[Key]*entry{},
		renders:    map[renderKey]chan struct{}{},
	}
}

// slot indexes an entry's two independent loads: corrupt bytes fail the
// strict load but still produce a doctor report, and both can be cached
// side by side.
type slot int

const (
	slotTrace slot = iota
	slotDoctor
	numSlots
)

// doctorWeight is what a doctor flight weighs beside its report's bytes:
// the entry, the flight and the map that holds the report.
const doctorWeight = 1 << 10

// entry is one content address worth of cached state.
type entry struct {
	key     Key
	elem    *list.Element
	weight  int64
	flights [numSlots]*flight
	// arts holds the rendered artifact bytes per kind, guarded by
	// Cache.mu. AdoptArtifact is its only writer and the first bytes
	// stored for a kind stay; LRU eviction takes them with the entry.
	arts map[string][]byte
}

// inFlight reports whether any of the entry's loads is still running;
// such entries are pinned against eviction.
func (e *entry) inFlight() bool {
	for _, f := range e.flights {
		if f != nil && !f.settled {
			return true
		}
	}
	return false
}

// flight is one load (trace or doctor). done/err/trace follow the
// singleflight protocol: the leader fills them, settles, then closes
// done; waiters read only after done.
type flight struct {
	done    chan struct{}
	entry   *entry // the entry whose slot holds the flight
	settled bool   // guarded by Cache.mu
	weight  int64
	err     error
	trace   *analyzer.Trace
}

// Handle is the per-request view of a cached trace. The trace it returns
// is shared across requests and must be treated as immutable.
type Handle struct{ f *flight }

// Trace returns the loaded, validated trace.
func (h *Handle) Trace() *analyzer.Trace { return h.f.trace }

// Load returns a handle for the trace image, loading it at most once per
// content address no matter how many requests race: the first request
// becomes the leader and runs the load under its own ctx; concurrent
// requests for the same bytes wait on the same flight. If the leader's
// request is cancelled mid-load, a live waiter retries the load itself
// rather than failing on the leader's context error.
func (c *Cache) Load(ctx context.Context, data []byte, lim analyzer.Limits) (*Handle, error) {
	return c.load(ctx, ImageOf(data), lim)
}

// load is Load for an image that is already hashed.
func (c *Cache) load(ctx context.Context, im Image, lim analyzer.Limits) (*Handle, error) {
	f, led, err := c.fly(ctx, im.key, slotTrace, func(f *flight) error {
		tr, err := analyzer.LoadContext(ctx, im.data, lim)
		if err != nil {
			return err
		}
		// Validate once while the flight is still exclusive; the shared
		// trace is immutable from here on.
		analyzer.Validate(tr)
		f.trace, f.weight = tr, tr.Footprint()
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Spill the raw image to the disk tier after settling, so dedup
	// waiters are not held behind an fsync. Failure only latches the
	// tier degraded; the request is served either way.
	if led && c.disk != nil {
		_ = c.disk.Put(im.key, KindTrace, im.data)
	}
	return &Handle{f}, nil
}

// doctor renders the salvage/recovery report of the trace image to JSON,
// cached and deduplicated exactly like load. Recoverable damage is a
// valid (cached) result; only hard failures — cancellation, admission
// limits — are errors, and those are never cached. The leader adopts the
// bytes before it settles, so every caller finds them on the entry; the
// salvaged trace is dropped with the report.
func (c *Cache) doctor(ctx context.Context, im Image, lim analyzer.Limits) ([]byte, error) {
	f, _, err := c.fly(ctx, im.key, slotDoctor, func(f *flight) error {
		d, err := analyzer.DoctorDataContext(ctx, im.data, lim)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			return err
		}
		c.AdoptArtifact(im.key, KindDoctor, buf.Bytes())
		f.weight = doctorWeight
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return f.entry.arts[KindDoctor], nil
}

// fly is the singleflight protocol for one slot of key's entry: the first
// caller becomes the leader and runs fill under its own ctx; the rest
// wait on the leader's flight, and a live waiter whose leader was
// cancelled mid-load retries instead of failing on the leader's context
// error. With a nil error the returned flight is settled and successful;
// the bool reports whether this caller led it.
func (c *Cache) fly(ctx context.Context, key Key, sl slot, fill func(*flight) error) (*flight, bool, error) {
	for {
		f, lead := c.acquire(key, sl)
		if lead {
			f.err = fill(f)
			c.settle(key, sl, f)
			return f, true, f.err
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if f.err != nil {
			if isCtxErr(f.err) && ctx.Err() == nil {
				continue // the leader's request died, not ours: retry
			}
			return nil, false, f.err
		}
		return f, false, nil
	}
}

// AttachDisk wires a disk-backed second tier under the same content
// addresses: rendered artifacts and raw trace images write through to
// it, Artifact consults it between the memory tier and a recompute, and
// a warm cache therefore survives a process restart. Call before the
// cache starts serving.
func (c *Cache) AttachDisk(d *DiskTier) { c.disk = d }

// Disk returns the attached disk tier, or nil.
func (c *Cache) Disk() *DiskTier { return c.disk }

// RawImage restores a trace image from the disk tier by content key —
// how a replayed job recovers the bytes of an upload whose HTTP request
// died with the previous process.
func (c *Cache) RawImage(key Key) ([]byte, bool) {
	if c.disk == nil {
		return nil, false
	}
	return c.disk.Get(key, KindTrace)
}

// AnalysisKinds lists the artifact kinds Artifact can produce: every
// registered kind, then doctor.
var AnalysisKinds = func() []string {
	names := make([]string, 0, len(kinds.All)+1)
	for _, k := range kinds.All {
		names = append(names, k.Name)
	}
	return append(names, KindDoctor)
}()

// ValidKind reports whether kind names a servable artifact.
func ValidKind(kind string) bool {
	_, ok := kinds.Lookup(kind)
	return ok || kind == KindDoctor
}

// Render computes the canonical JSON artifact of one registered kind
// from a handle: the kind's kernel over the shared trace, then its JSON
// renderer. The cache keeps the bytes, not the kernel's value. The bytes
// are deterministic
// for a given trace image, which is what makes the disk tier's
// content-addressed artifacts and the chaos harness's byte-convergence
// check possible.
func Render(kind string, h *Handle) ([]byte, error) {
	k, ok := kinds.Lookup(kind)
	if !ok {
		return nil, fmt.Errorf("cache: unknown artifact kind %q", kind)
	}
	var buf bytes.Buffer
	if err := k.JSON(h.Trace(), k.Compute(h.Trace()), &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Artifact is ArtifactOf for a trace image that has yet to be hashed.
func (c *Cache) Artifact(ctx context.Context, data []byte, kind string, lim analyzer.Limits) ([]byte, error) {
	return c.ArtifactOf(ctx, ImageOf(data), kind, lim)
}

// ArtifactOf returns the rendered JSON artifact of the given kind for the
// trace image, from the fastest tier that has it:
//
//  1. the bytes on the key's entry in the memory tier,
//  2. the disk tier, CRC-verified (a corrupt object is deleted and the
//     lookup falls through to recompute),
//  3. computed — loading the trace (or salvaging it, for doctor) through
//     the singleflight path if needed — then adopted into both tiers.
//
// After a restart, path 2 is what makes the warm cache real: the upload
// is hashed and served without parsing, decoding, or analyzing.
func (c *Cache) ArtifactOf(ctx context.Context, im Image, kind string, lim analyzer.Limits) ([]byte, error) {
	if b, ok := c.Peek(im.key, kind); ok {
		return b, nil
	}
	if kind == KindDoctor {
		return c.doctor(ctx, im, lim)
	}
	h, err := c.load(ctx, im, lim)
	if err != nil {
		return nil, err
	}
	return c.render(ctx, im.key, kind, h)
}

// render runs kind's kernel over h's trace once however many callers
// race for it: the first renders and adopts the bytes, the rest wait for
// that render and take its bytes. A waiter finds none only when the
// render failed or the entry was evicted meanwhile, and then renders
// itself.
func (c *Cache) render(ctx context.Context, key Key, kind string, h *Handle) ([]byte, error) {
	rk := renderKey{key, kind}
	for {
		c.mu.Lock()
		if e := c.entries[key]; e != nil {
			if b, ok := e.arts[kind]; ok {
				c.mu.Unlock()
				return b, nil
			}
		}
		wait, busy := c.renders[rk]
		if !busy {
			c.renders[rk] = make(chan struct{})
		}
		c.mu.Unlock()
		if !busy {
			break
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer func() {
		c.mu.Lock()
		close(c.renders[rk])
		delete(c.renders, rk)
		c.mu.Unlock()
	}()
	b, err := Render(kind, h)
	if err != nil {
		return nil, err
	}
	return c.AdoptArtifact(key, kind, b), nil
}

// Peek returns the rendered artifact for a key from the fastest tier
// that already holds it — the memory tier, then the disk tier — and
// never computes. A disk hit is adopted into the memory tier, so the
// object is read and CRC-checked once per key, not once per request. It
// is the cluster peer-peek read path: a replica asks the key's owner "do
// you have this?", and a cold owner must answer cheaply instead of
// analyzing a trace it does not even have the bytes for.
func (c *Cache) Peek(key Key, kind string) ([]byte, bool) {
	if b, ok := c.peekArtifact(key, kind); ok {
		return b, true
	}
	if c.disk != nil {
		if b, ok := c.disk.Get(key, kind); ok {
			return c.AdoptArtifact(key, kind, b), true
		}
	}
	return nil, false
}

// peekArtifact serves the memory tier's artifact bytes without
// triggering a load. A hit counts as a cache hit and refreshes LRU.
func (c *Cache) peekArtifact(key Key, kind string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return nil, false
	}
	b, ok := e.arts[kind]
	if ok {
		c.ll.MoveToFront(e.elem)
		c.hits++
	}
	return b, ok
}

// AdoptArtifact is how artifact bytes enter the cache, whoever produced
// them: ArtifactOf's render, the doctor, a diff under its pair key, a
// fetch from the key's owner replica, a streaming upload. It stores them on key's entry — creating
// one if no load has touched the key, so a memory-only replica keeps
// what it fetched — weighs them at their capacity, and writes them
// through to the disk tier. The bytes must be the canonical rendering for
// the key; in cluster mode both sides derive them deterministically from
// the same trace image. The first writer wins; the bytes returned are the
// ones retained.
func (c *Cache) AdoptArtifact(key Key, kind string, b []byte) []byte {
	c.mu.Lock()
	e := c.touch(key)
	if prev, ok := e.arts[kind]; ok {
		b = prev
	} else {
		if e.arts == nil {
			e.arts = map[string][]byte{}
		}
		e.arts[kind] = b
		e.weight += int64(cap(b))
		c.bytes += int64(cap(b))
		c.evict(e)
	}
	c.mu.Unlock()
	if c.disk != nil {
		_ = c.disk.Put(key, kind, b)
	}
	return b
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Dedups: c.dedups,
		Evictions: c.evictions,
		Entries:   len(c.entries), Bytes: c.bytes,
		MaxEntries: c.maxEntries, MaxBytes: c.maxBytes,
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// acquire looks up (or creates) the flight in one slot of key's entry.
// lead reports whether the caller must run the load and settle it.
// Settled failed flights are removed in settle, so an existing flight
// seen here is either in flight or a settled success.
func (c *Cache) acquire(key Key, sl slot) (f *flight, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.touch(key)
	f = e.flights[sl]
	if f == nil {
		f = &flight{done: make(chan struct{}), entry: e}
		e.flights[sl] = f
		c.misses++
		return f, true
	}
	if f.settled {
		c.hits++
	} else {
		c.dedups++
	}
	return f, false
}

// touch returns key's entry, creating it if absent, as the most recently
// used. Called with mu held.
func (c *Cache) touch(key Key) *entry {
	e := c.entries[key]
	if e == nil {
		e = &entry{key: key}
		e.elem = c.ll.PushFront(e)
		c.entries[key] = e
	} else {
		c.ll.MoveToFront(e.elem)
	}
	return e
}

// settle publishes the flight result: accounts its weight (or removes the
// failed flight so the next request retries), runs eviction, and releases
// the waiters.
func (c *Cache) settle(key Key, sl slot, f *flight) {
	c.mu.Lock()
	f.settled = true
	e := c.entries[key]
	if f.err != nil {
		if e != nil {
			if e.flights[sl] == f {
				e.flights[sl] = nil
			}
			if e.flights == [numSlots]*flight{} && len(e.arts) == 0 {
				c.ll.Remove(e.elem)
				delete(c.entries, key)
			}
		}
	} else if e != nil {
		e.weight += f.weight
		c.bytes += f.weight
		c.ll.MoveToFront(e.elem)
		c.evict(e)
	}
	c.mu.Unlock()
	close(f.done)
}

// over reports whether either bound is exceeded. Called with mu held.
func (c *Cache) over() bool {
	return (c.maxEntries > 0 && len(c.entries) > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes)
}

// evict removes least-recently-used entries until the cache fits its
// bounds, skipping in-flight entries and the entry just touched (the
// request being served needs it regardless of budget). Called with mu
// held.
func (c *Cache) evict(keep *entry) {
	for c.over() {
		var victim *entry
		for el := c.ll.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*entry)
			if e == keep || e.inFlight() {
				continue
			}
			victim = e
			break
		}
		if victim == nil {
			return
		}
		c.ll.Remove(victim.elem)
		delete(c.entries, victim.key)
		c.bytes -= victim.weight
		c.evictions++
	}
}
