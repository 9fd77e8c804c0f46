package event

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// CorePPE is the Record.Core value for events from the main PPE thread;
// SPE records carry the SPE index. Additional PPE threads count downward
// from CorePPE (0xFE, 0xFD, ...) so every thread has its own ordered
// stream, down to CorePPEBase.
const (
	CorePPE     = 0xFF
	CorePPEBase = 0xF0
)

// CoreName renders a core byte for humans: "SPE3", "PPE", "PPE.1", ...
func CoreName(c uint8) string {
	if c < CorePPEBase {
		return fmt.Sprintf("SPE%d", c)
	}
	if c == CorePPE {
		return "PPE"
	}
	return fmt.Sprintf("PPE.%d", CorePPE-c)
}

// Record flags.
const (
	// FlagDecrTime marks Time as elapsed SPU-decrementer ticks since the
	// program-start anchor (SPE records); without it Time is an absolute
	// PPE timebase tick.
	FlagDecrTime = 1 << 0
	// FlagHasStr marks a trailing string payload.
	FlagHasStr = 1 << 1
)

// MaxStrLen is the longest string payload a record can carry; longer
// strings are truncated by the writer.
const MaxStrLen = 200

// headerSize is the fixed part of an encoded record:
// size u8 | id u16 | core u8 | flags u8 | time u64 | nargs u8.
const headerSize = 1 + 2 + 1 + 1 + 8 + 1

// MinRecordSize is the smallest possible encoded record (a zero-arg
// record is just the header). Decoders use it to bound the record count
// of a buffer from its byte length.
const MinRecordSize = headerSize

// Record is one decoded trace record.
type Record struct {
	ID    ID
	Core  uint8 // SPE index, or CorePPE
	Flags uint8
	Time  uint64
	Args  []uint64
	Str   string
}

// EncodedSize returns the byte length of the encoded record.
func (r *Record) EncodedSize() int {
	n := headerSize + 8*len(r.Args)
	if r.Flags&FlagHasStr != 0 {
		n += 2 + len(r.Str)
	}
	return n
}

// ErrRecordTooLarge is returned when a record cannot fit the 1-byte size
// field; writers must truncate strings to MaxStrLen to avoid it.
var ErrRecordTooLarge = errors.New("event: record exceeds 255 bytes")

// AppendTo appends the encoded record to buf and returns the result.
func (r *Record) AppendTo(buf []byte) ([]byte, error) {
	size := r.EncodedSize()
	if size > 255 {
		return buf, ErrRecordTooLarge
	}
	buf = append(buf, byte(size))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(r.ID))
	buf = append(buf, r.Core, r.Flags)
	buf = binary.LittleEndian.AppendUint64(buf, r.Time)
	buf = append(buf, byte(len(r.Args)))
	for _, a := range r.Args {
		buf = binary.LittleEndian.AppendUint64(buf, a)
	}
	if r.Flags&FlagHasStr != 0 {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Str)))
		buf = append(buf, r.Str...)
	}
	return buf, nil
}

// Decode decodes one record from the front of buf, returning the record
// and the number of bytes consumed. Errors identify structural corruption;
// an io-style short buffer yields ErrShortRecord so stream readers can
// distinguish truncation from garbage.
var ErrShortRecord = errors.New("event: truncated record")

// Decode parses the first record in buf.
func Decode(buf []byte) (Record, int, error) {
	var r Record
	n, _, err := DecodeNext(&r, buf, nil)
	return r, n, err
}

// ScanChunk walks the record framing of one chunk — size bytes and
// zero-padding runs only, no field decoding — and returns an upper bound
// on the records and argument words a full decode of the same bytes can
// produce. The record loop sizes its offset slice from it, and bulk
// decoders their record slice and argument arena, instead of assuming
// every record is MinRecordSize, which over-allocates several-fold on
// arg-heavy streams.
//
// The bound is safe against hostile input: the scan stops at the first
// record the decoder would reject for framing (size below the header or
// past the buffer), and the word count covers every byte the scanned
// records own beyond their headers — at least the argument words
// DecodeNext can accept per record (Frame rejects args overflowing the
// record's declared size before any is appended). The decoder therefore
// never appends more words than ScanChunk counted, so an arena sized
// from it cannot regrow while earlier records alias its backing array.
func ScanChunk(data []byte) (records, argWords int) {
	bytes := 0 // record bytes walked, headers included
	for len(data) > 0 {
		if data[0] == 0 {
			// DMA-alignment padding between buffer flushes.
			n := 1
			for n < len(data) && data[n] == 0 {
				n++
			}
			data = data[n:]
			continue
		}
		size := int(data[0])
		if size < headerSize || size > len(data) {
			break
		}
		records++
		bytes += size
		data = data[size:]
	}
	return records, (bytes - records*headerSize) / 8
}

// Frame checks the record at the front of buf — its size against the
// header and the buffer, a known event ID, the table's arity, and the
// argument and string bounds against the declared size — and returns its
// encoded length, without decoding a field. It is the only record
// validator: DecodeNext decodes what Frame accepted, and loaders that
// frame a chunk first decode each accepted record later, straight out of
// the same bytes (colstore.Builder.AppendEncoded). A short buffer yields
// ErrShortRecord.
func Frame(buf []byte) (int, error) {
	if len(buf) < 1 {
		return 0, ErrShortRecord
	}
	size := int(buf[0])
	if size < headerSize {
		return 0, fmt.Errorf("event: record size %d below header size", size)
	}
	if len(buf) < size {
		return 0, ErrShortRecord
	}
	id := ID(binary.LittleEndian.Uint16(buf[1:3]))
	nargs := int(buf[13])
	// Metadata via pointer, not Lookup: copying the Info struct per
	// record is measurable in bulk framing, and only the arity and (on
	// the error paths) the name are needed.
	if id == idInvalid || id >= maxID {
		return 0, fmt.Errorf("event: unknown event ID %d", id)
	}
	info := &table[id]
	if nargs != len(info.Args) {
		return 0, fmt.Errorf("event: %s has %d args, expected %d", info.Name, nargs, len(info.Args))
	}
	off := headerSize + 8*nargs
	if off > size {
		return 0, fmt.Errorf("event: %s args overflow record size", info.Name)
	}
	if buf[4]&FlagHasStr != 0 {
		if off+2 > size {
			return 0, fmt.Errorf("event: %s string length overflows record", info.Name)
		}
		if off+2+int(binary.LittleEndian.Uint16(buf[off:off+2])) != size {
			return 0, fmt.Errorf("event: %s string payload inconsistent with record size", info.Name)
		}
		return size, nil
	}
	if off != size {
		return 0, fmt.Errorf("event: %s trailing bytes in record", info.Name)
	}
	return size, nil
}

// DecodeNext decodes the first record in buf into *dst, appending any
// arguments to arena instead of allocating a fresh slice per record:
// dst.Args aliases the appended tail of the returned arena, so bulk
// decoders size the arena up front (ScanChunk) and point dst at the next
// slot of a preallocated record slice. Zero-argument records keep Args
// nil. On error *dst is not written.
func DecodeNext(dst *Record, buf []byte, arena []uint64) (int, []uint64, error) {
	size, err := Frame(buf)
	if err != nil {
		return 0, arena, err
	}
	off := headerSize
	var args []uint64
	if nargs := int(buf[13]); nargs > 0 {
		start := len(arena)
		for i := 0; i < nargs; i++ {
			arena = append(arena, binary.LittleEndian.Uint64(buf[off:off+8]))
			off += 8
		}
		args = arena[start:len(arena):len(arena)]
	}
	flags := buf[4]
	var str string
	if flags&FlagHasStr != 0 {
		str = string(buf[off+2 : size])
	}
	dst.ID = ID(binary.LittleEndian.Uint16(buf[1:3]))
	dst.Core = buf[3]
	dst.Flags = flags
	dst.Time = binary.LittleEndian.Uint64(buf[5:13])
	dst.Args = args
	dst.Str = str
	return size, arena, nil
}

// Arg returns the value of the named argument, looked up through the
// metadata table.
func (r *Record) Arg(name string) (uint64, bool) {
	info, ok := Lookup(r.ID)
	if !ok {
		return 0, false
	}
	for i, n := range info.Args {
		if n == name && i < len(r.Args) {
			return r.Args[i], true
		}
	}
	return 0, false
}

// String renders the record for human consumption.
func (r *Record) String() string {
	info, _ := Lookup(r.ID)
	s := fmt.Sprintf("[%s t=%d] %s", CoreName(r.Core), r.Time, info.Name)
	for i, a := range r.Args {
		name := fmt.Sprintf("a%d", i)
		if i < len(info.Args) {
			name = info.Args[i]
		}
		s += fmt.Sprintf(" %s=%d", name, a)
	}
	if r.Flags&FlagHasStr != 0 {
		s += fmt.Sprintf(" %q", r.Str)
	}
	return s
}
