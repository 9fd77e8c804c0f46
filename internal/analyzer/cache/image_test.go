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
// small — under readers that deliver the same bytes in different shapes:
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
				im, err := cache.ReadImage(rd.wrap(bytes.NewReader(data)), hint)
				if err != nil {
					t.Fatalf("%s n=%d hint=%d: %v", rd.name, n, hint, err)
				}
				if !bytes.Equal(im.Data(), data) {
					t.Fatalf("%s n=%d hint=%d: read %d bytes that differ from the input", rd.name, n, hint, len(im.Data()))
				}
				if im.Key() != want {
					t.Fatalf("%s n=%d hint=%d: key %s, want KeyOf = %s", rd.name, n, hint, im.Key(), want)
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
		_, err := cache.ReadImage(r, hint)
		var mbe *http.MaxBytesError
		if !errors.As(err, &mbe) || mbe.Limit != 7 {
			t.Fatalf("hint=%d: err = %v, want the reader's *http.MaxBytesError", hint, err)
		}
	}
}

// TestReadImageAllocation pins the two allocation properties of the
// sized read: a declared length is not allocated until the first MiB of
// it has arrived, and an honest one is allocated exactly once it is.
func TestReadImageAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	im, err := cache.ReadImage(bytes.NewReader(noise(10)), 64<<20)
	runtime.ReadMemStats(&after)
	if err != nil || len(im.Data()) != 10 {
		t.Fatalf("read %d bytes, err %v", len(im.Data()), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("a 64 MiB Content-Length with a 10-byte body allocated %d bytes, want < 2 MiB", got)
	}

	for _, n := range []int{1000, 1<<20 - 1, 1 << 20, 1<<20 + 1, 3 << 20} {
		for _, wrap := range []func(io.Reader) io.Reader{iotest.HalfReader, iotest.DataErrReader} {
			im, err := cache.ReadImage(wrap(bytes.NewReader(noise(n))), int64(n))
			if err != nil {
				t.Fatal(err)
			}
			if len(im.Data()) != n || cap(im.Data()) != n+1 {
				t.Fatalf("exact hint %d: len %d cap %d, want cap %d (the buffer regrew)", n, len(im.Data()), cap(im.Data()), n+1)
			}
		}
	}
}
