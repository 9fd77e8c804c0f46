package traceio

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/core/event"
)

// writeMultiChunk builds a 4-chunk trace (SPE 0, SPE 1, PPE, SPE 0 again)
// and returns the bytes plus the chunk payloads in file order.
func writeMultiChunk(t *testing.T) ([]byte, [][]byte) {
	t.Helper()
	var out bytes.Buffer
	w, err := NewWriter(&out, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMeta(sampleMeta()); err != nil {
		t.Fatal(err)
	}
	mk := func(core uint8, n int) []byte {
		var recs []event.Record
		for i := 0; i < n; i++ {
			recs = append(recs, event.Record{
				ID: event.SPEMFCGet, Core: core, Flags: event.FlagDecrTime,
				Time: uint64(10 * (i + 1)), Args: []uint64{0, 64, 128, uint64(i % 16)},
			})
		}
		return encodeRecords(t, recs...)
	}
	ppe := encodeRecords(t,
		event.Record{ID: event.PPESPEStart, Core: event.CorePPE, Time: 990, Args: []uint64{0, 1}},
		event.Record{ID: event.PPESPEStart, Core: event.CorePPE, Time: 1000, Args: []uint64{1, 1}},
	)
	payloads := [][]byte{mk(0, 12), mk(1, 9), ppe, mk(0, 7)}
	chunks := []Chunk{
		{Core: 0, AnchorIdx: 0, Data: payloads[0]},
		{Core: 1, AnchorIdx: 1, Data: payloads[1]},
		{Core: event.CorePPE, AnchorIdx: NoAnchor, Data: payloads[2]},
		{Core: 0, AnchorIdx: 0, Data: payloads[3]},
	}
	for _, c := range chunks {
		if err := w.WriteChunk(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), payloads
}

// chunkOffsets returns the file offset of each chunk header.
func chunkOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	f, off, err := parseHeaderMeta(data, Limits{})
	if err != nil || f.Truncated {
		t.Fatalf("parseHeaderMeta: %v (trunc=%v)", err, f.Truncated)
	}
	chdr := chunkHeaderLen(f.Header.Version)
	var offs []int
	for off < len(data) && data[off] == ChunkMagic {
		offs = append(offs, off)
		clen := int(le32(data[off+4 : off+8]))
		off += chdr + clen
	}
	return offs
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// checkAccounting asserts the report's disjoint byte invariant.
func checkAccounting(t *testing.T, rep *SalvageReport) {
	t.Helper()
	sum := rep.BytesStructural + rep.BytesRecovered + rep.BytesDamaged + rep.BytesSkipped
	if sum != rep.BytesTotal {
		t.Fatalf("byte accounting: structural %d + recovered %d + damaged %d + skipped %d = %d, want total %d",
			rep.BytesStructural, rep.BytesRecovered, rep.BytesDamaged, rep.BytesSkipped, sum, rep.BytesTotal)
	}
}

func TestSalvageCleanFile(t *testing.T) {
	data, payloads := writeMultiChunk(t)
	f, rep, err := Salvage(data)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean file not reported clean: %+v notes=%v", rep, rep.Notes)
	}
	if f.Truncated {
		t.Fatal("clean file reported truncated")
	}
	if len(f.Chunks) != len(payloads) {
		t.Fatalf("chunks = %d, want %d", len(f.Chunks), len(payloads))
	}
	for i, c := range f.Chunks {
		if !bytes.Equal(c.Data, payloads[i]) {
			t.Fatalf("chunk %d data differs", i)
		}
	}
	if rep.ChunksRecovered != 4 || rep.ChunksDamaged != 0 || rep.Resyncs != 0 {
		t.Fatalf("report = %+v", rep)
	}
	checkAccounting(t, rep)
}

// TestSalvageSingleFlip flips every byte position in turn: salvage must
// never panic, must keep the accounting exact, and must recover verbatim
// every chunk whose bytes all precede the flip.
func TestSalvageSingleFlip(t *testing.T) {
	data, payloads := writeMultiChunk(t)
	offs := chunkOffsets(t, data)
	chdr := chunkHeaderLen(Version)
	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x5A
		f, rep, err := Salvage(mut)
		if rep == nil {
			t.Fatalf("pos %d: nil report", pos)
		}
		checkAccounting(t, rep)
		if err != nil {
			continue // nothing recoverable is acceptable only with err
		}
		// Every chunk fully before the flip must be present verbatim.
		for i, o := range offs {
			end := o + chdr + len(payloads[i])
			if end > pos {
				break
			}
			found := false
			for _, c := range f.Chunks {
				if bytes.Equal(c.Data, payloads[i]) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("flip at %d: chunk %d (bytes %d..%d) not recovered", pos, i, o, end)
			}
		}
	}
}

// TestSalvageInsertDelete shifts the byte stream by inserting or deleting
// one byte at a sample of positions; chunks before the edit must survive
// and intact chunks after it must be re-found by resync.
func TestSalvageInsertDelete(t *testing.T) {
	data, payloads := writeMultiChunk(t)
	offs := chunkOffsets(t, data)
	chdr := chunkHeaderLen(Version)
	// Edit inside chunk 1's payload: chunk 0 precedes, chunks 2 and 3 are
	// intact but shifted.
	pos := offs[1] + chdr + 5
	for name, mut := range map[string][]byte{
		"insert": append(append(append([]byte(nil), data[:pos]...), 0xA7), data[pos:]...),
		"delete": append(append([]byte(nil), data[:pos]...), data[pos+1:]...),
	} {
		f, rep, err := Salvage(mut)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAccounting(t, rep)
		for _, want := range [][]byte{payloads[0], payloads[2], payloads[3]} {
			found := false
			for _, c := range f.Chunks {
				if bytes.Equal(c.Data, want) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s at %d: intact chunk not recovered (chunks=%d, report=%+v)",
					name, pos, len(f.Chunks), rep)
			}
		}
		if rep.Resyncs == 0 {
			t.Fatalf("%s: expected at least one resync, report=%+v", name, rep)
		}
	}
}

// TestSalvageTruncation cuts the file at every offset: chunks fully inside
// the prefix must be recovered and the accounting must stay exact.
func TestSalvageTruncation(t *testing.T) {
	data, payloads := writeMultiChunk(t)
	offs := chunkOffsets(t, data)
	chdr := chunkHeaderLen(Version)
	for cut := 0; cut <= len(data); cut++ {
		f, rep, err := Salvage(data[:cut])
		checkAccounting(t, rep)
		if err != nil {
			continue
		}
		if cut < len(data) && !f.Truncated {
			t.Fatalf("cut %d: truncated file not flagged", cut)
		}
		for i, o := range offs {
			if o+chdr+len(payloads[i]) > cut {
				break
			}
			found := false
			for _, c := range f.Chunks {
				if bytes.Equal(c.Data, payloads[i]) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("cut %d: complete chunk %d not recovered", cut, i)
			}
		}
	}
}

// TestSalvageMetaDamage corrupts the metadata blob so it no longer parses:
// SPE chunks lose their anchors and are dropped, PPE chunks survive.
func TestSalvageMetaDamage(t *testing.T) {
	data, payloads := writeMultiChunk(t)
	mut := append([]byte(nil), data...)
	// The metadata XML starts right after the header and its length field.
	copy(mut[headerLen+4:], "<<<garbage>>>")
	f, rep, err := Salvage(mut)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	if rep.MetaOK {
		t.Fatal("damaged metadata reported OK")
	}
	if rep.ChunksDropped == 0 {
		t.Fatalf("SPE chunks not dropped without anchors: %+v", rep)
	}
	foundPPE := false
	for _, c := range f.Chunks {
		if c.Core < event.CorePPEBase {
			t.Fatalf("SPE chunk kept without metadata: core %d", c.Core)
		}
		if bytes.Equal(c.Data, payloads[2]) {
			foundPPE = true
		}
	}
	if !foundPPE {
		t.Fatal("PPE chunk not recovered after metadata damage")
	}
}

// TestSalvageFooterCRCMismatch flips a bit in the stored footer CRC: all
// chunks recover, the footer is reported bad.
func TestSalvageFooterCRCMismatch(t *testing.T) {
	data, _ := writeMultiChunk(t)
	mut := append([]byte(nil), data...)
	mut[len(mut)-1] ^= 1
	f, rep, err := Salvage(mut)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	if rep.FooterOK {
		t.Fatal("bad footer CRC reported OK")
	}
	if rep.ChunksRecovered != 4 || rep.ChunksDamaged != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if !f.Truncated {
		t.Fatal("unverifiable file should be flagged truncated")
	}
}

// TestSalvageGarbage feeds random bytes: no panic, and either an
// unsalvageable error or an exact accounting of what it claims to have
// found.
func TestSalvageGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, rng.Intn(600))
		rng.Read(data)
		_, rep, _ := Salvage(data)
		checkAccounting(t, rep)
	}
}

// TestSalvageMissingFooter drops the footer entirely (the crash-write
// shape): everything recovers, file flagged truncated.
func TestSalvageMissingFooter(t *testing.T) {
	data, payloads := writeMultiChunk(t)
	f, rep, err := Salvage(data[:len(data)-8])
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	if rep.FooterOK {
		t.Fatal("missing footer reported OK")
	}
	if !f.Truncated {
		t.Fatal("footerless file not flagged truncated")
	}
	if len(f.Chunks) != len(payloads) || rep.ChunksRecovered != 4 {
		t.Fatalf("chunks=%d report=%+v", len(f.Chunks), rep)
	}
}

// TestSalvageParityWithParse checks Salvage and Parse agree on a clean
// file, chunk for chunk.
func TestSalvageParityWithParse(t *testing.T) {
	data := writeSample(t)
	pf, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	sf, _, err := Salvage(data)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Header != pf.Header || len(sf.Chunks) != len(pf.Chunks) {
		t.Fatalf("salvage diverges: %+v vs %+v", sf.Header, pf.Header)
	}
	for i := range pf.Chunks {
		if !bytes.Equal(sf.Chunks[i].Data, pf.Chunks[i].Data) ||
			sf.Chunks[i].Core != pf.Chunks[i].Core ||
			sf.Chunks[i].AnchorIdx != pf.Chunks[i].AnchorIdx {
			t.Fatalf("chunk %d differs", i)
		}
	}
}

// hostileResyncImage builds size bytes of 0x0E filler — each byte reads
// as a 14-byte record header with an unknown event ID, so a size-only
// walk (event.ScanChunk) runs through all of it — with a plausible
// version-2 chunk header for SPE 1 every 200 bytes that declares a
// near-4 GiB length. rec, when non-nil, follows each header.
func hostileResyncImage(size int, rec []byte) []byte {
	data := bytes.Repeat([]byte{0x0E}, size)
	for off := 0; off+chunkHeaderLen(Version)+len(rec) <= size; off += 200 {
		h := data[off:]
		h[0], h[1] = ChunkMagic, 1
		binary.LittleEndian.PutUint16(h[2:4], NoAnchor)
		binary.LittleEndian.PutUint32(h[4:8], 0xFFFFFFF0)
		binary.LittleEndian.PutUint32(h[8:12], 0)
		copy(h[chunkHeaderLen(Version):], rec)
	}
	return data
}

// TestSalvageResyncLinear salvages hostile images at two sizes eight
// times apart and checks the time grows about eightfold: each resync
// candidate must cost the bytes it frames, not a walk to the end of the
// input, or a 64 MiB upload takes quadratic time.
func TestSalvageResyncLinear(t *testing.T) {
	rec := encodeRecords(t, event.Record{ID: event.SPEMFCGet, Core: 1,
		Flags: event.FlagDecrTime, Time: 10, Args: []uint64{0, 64, 128, 3}})
	for _, tc := range []struct {
		name string
		rec  []byte
	}{{"filler", nil}, {"one record then filler", rec}} {
		t.Run(tc.name, func(t *testing.T) {
			best := func(size int) time.Duration {
				data := hostileResyncImage(size, tc.rec)
				d := time.Duration(1<<63 - 1)
				for range 5 {
					start := time.Now()
					_, rep, _ := Salvage(data)
					d = min(d, time.Since(start))
					checkAccounting(t, rep)
				}
				return d
			}
			small, large := best(128<<10), best(1<<20)
			ratio := float64(large) / float64(small)
			t.Logf("128 KiB: %v, 1 MiB: %v (%.1fx)", small, large, ratio)
			if ratio > 24 {
				t.Fatalf("8x the input took %.0fx the time (%v vs %v): salvage is superlinear", ratio, large, small)
			}
		})
	}
}
