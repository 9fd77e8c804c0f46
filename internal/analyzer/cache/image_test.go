package cache_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"testing"
	"testing/iotest"

	"github.com/celltrace/pdt/internal/analyzer/cache"
)

// noise is n deterministic bytes that do not repeat on any block size.
func noise(n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(b)
	return b
}

// TestReadImageMatchesKeyOf walks every branch of the read loop — sized,
// unsized, the jump at the first MiB, growth past a hint that was too
// small, with and without a used spare buffer — under readers that deliver the same bytes in different shapes:
// whatever the shape and whatever the hint, the image holds the input and
// the key it would get from hashing the finished buffer.
func TestReadImageMatchesKeyOf(t *testing.T) {
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
		max  int // largest input worth the Read calls
	}{
		{"whole", func(r io.Reader) io.Reader { return r }, 1 << 30},
		{"onebyte", iotest.OneByteReader, 100_000},
		{"half", iotest.HalfReader, 1 << 30},
		// EOF arrives with the last bytes, as net/http bodies deliver it.
		{"dataerr", iotest.DataErrReader, 1 << 30},
	}
	for _, n := range []int{0, 1, 511, 512, 70_001, 5<<19 + 3} {
		data := noise(n)
		want := cache.KeyOf(data)
		for _, rd := range readers {
			if n > rd.max {
				continue
			}
			for _, hint := range []int64{0, -1, int64(n), int64(n / 3), int64(n) * 4} {
				// A spare from a free list still holds its last body.
				for _, spare := range [][]byte{nil, bytes.Repeat([]byte{0xA5}, n+1)[:0]} {
					im, err := cache.ReadImage(rd.wrap(bytes.NewReader(data)), hint, spare)
					if err != nil {
						t.Fatalf("%s n=%d hint=%d: %v", rd.name, n, hint, err)
					}
					if !bytes.Equal(im.Data(), data) {
						t.Fatalf("%s n=%d hint=%d spare=%d: read %d bytes that differ from the input", rd.name, n, hint, cap(spare), len(im.Data()))
					}
					if im.Key() != want {
						t.Fatalf("%s n=%d hint=%d spare=%d: key %s, want KeyOf = %s", rd.name, n, hint, cap(spare), im.Key(), want)
					}
				}
			}
		}
	}
	data := noise(99)
	if im := cache.ImageOf(data); im.Key() != cache.KeyOf(data) || !bytes.Equal(im.Data(), data) {
		t.Fatal("ImageOf does not pair the bytes with their KeyOf")
	}
}

// TestReadImageReturnsReaderError: a reader that fails midway fails the
// read, with an error the daemon can still recognise by type.
func TestReadImageReturnsReaderError(t *testing.T) {
	data := noise(70_001)
	for _, hint := range []int64{-1, int64(len(data))} {
		r := io.MultiReader(bytes.NewReader(data[:len(data)/2]), iotest.ErrReader(&http.MaxBytesError{Limit: 7}))
		_, err := cache.ReadImage(r, hint, nil)
		var mbe *http.MaxBytesError
		if !errors.As(err, &mbe) || mbe.Limit != 7 {
			t.Fatalf("hint=%d: err = %v, want the reader's *http.MaxBytesError", hint, err)
		}
	}
}

// TestReadImageAllocation pins the allocation properties of the sized
// read: a declared length is not allocated until the first MiB of it has
// arrived, whether or not the caller lends a smaller spare buffer; an
// honest one is allocated exactly once it is; and a spare that holds it
// is filled in place.
func TestReadImageAllocation(t *testing.T) {
	liar := noise(10)
	for _, spare := range [][]byte{nil, make([]byte, 0, 4<<20)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		im, err := cache.ReadImage(bytes.NewReader(liar), 64<<20, spare)
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(im.Data(), liar) {
			t.Fatalf("spare cap %d: read %d bytes, err %v", cap(spare), len(im.Data()), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
			t.Fatalf("spare cap %d: a 64 MiB Content-Length with a 10-byte body allocated %d bytes, want < 2 MiB", cap(spare), got)
		}
		if spare != nil && &im.Data()[0] == &spare[:1][0] {
			t.Fatalf("a %d B spare was used for a 64 MiB declared length", cap(spare))
		}
	}

	for _, n := range []int{1000, 1<<20 - 1, 1 << 20, 1<<20 + 1, 3 << 20} {
		for _, wrap := range []func(io.Reader) io.Reader{iotest.HalfReader, iotest.DataErrReader} {
			im, err := cache.ReadImage(wrap(bytes.NewReader(noise(n))), int64(n), nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(im.Data()) != n || cap(im.Data()) != n+1 {
				t.Fatalf("exact hint %d: len %d cap %d, want cap %d (the buffer regrew)", n, len(im.Data()), cap(im.Data()), n+1)
			}
		}
	}

	data := noise(3 << 20)
	spare := make([]byte, 7, 4<<20)
	for _, hint := range []int64{int64(len(data)), -1} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		im, err := cache.ReadImage(bytes.NewReader(data), hint, spare)
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(im.Data(), data) || im.Key() != cache.KeyOf(data) {
			t.Fatalf("hint %d: the spare did not read the image back (err %v)", hint, err)
		}
		if &im.Data()[0] != &spare[0] {
			t.Fatalf("hint %d: a 4 MiB spare was not used for a 3 MiB body", hint)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Fatalf("hint %d: reading into a spare that holds the body allocated %d bytes", hint, got)
		}
	}
}
