package main

// gzip transport. Uploads may arrive Content-Encoding: gzip (trace
// images compress well — they are mostly deltas and zeros) and JSON
// responses are compressed when the client's Accept-Encoding allows it.
// The body cap applies on both sides of the decompressor: MaxBytesReader
// bounds the wire bytes and the decompressed image is re-checked against
// the same limit, so a small gzip bomb cannot smuggle an oversized trace
// past admission control.

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"github.com/celltrace/pdt/internal/analyzer/cache"
)

// gzipPool recycles response compressors: a gzip.Writer carries the
// full deflate state (~800 KiB), which would otherwise be reallocated
// on every compressed response.
var gzipPool = sync.Pool{
	New: func() any { return gzip.NewWriter(io.Discard) },
}

// bodyReader is the read loop a request body goes through, filling buf
// when buf is large enough (see cache.ReadSized), in one of its two
// forms: cache.ReadImage for a trace image, which hashes each read as it
// lands, and readRaw for /v1/diff's envelope, whose own hash nobody
// would use.
type bodyReader[B body] func(r io.Reader, hint int64, buf []byte) (B, error)

// body is a request body as read; Data is the buffer it was read into,
// which goes back on the free list after the response.
type body interface{ Data() []byte }

// envelope is /v1/diff's request body, unhashed.
type envelope []byte

func (e envelope) Data() []byte { return e }

func readRaw(r io.Reader, hint int64, buf []byte) (envelope, error) {
	return cache.ReadSized(r, hint, nil, buf)
}

// openBody opens one request body under the configured cap and returns
// it with the length it declares (-1 when unknown). A declared length
// over the cap is refused before a byte is read. Wire bytes are capped by
// MaxBytesReader; a gzip upload is inflated lazily, and its decompressed
// bytes are held to the same cap by capReader, so a bomb dies at the
// first read past it.
func (s *server) openBody(w http.ResponseWriter, r *http.Request) (io.Reader, int64, *statusError) {
	if r.ContentLength > s.cfg.maxBody {
		// The answer MaxBytesReader would give after reading up to the cap.
		return nil, 0, &statusError{
			status: http.StatusRequestEntityTooLarge,
			err:    &http.MaxBytesError{Limit: s.cfg.maxBody},
		}
	}
	src := io.Reader(http.MaxBytesReader(w, r.Body, s.cfg.maxBody))
	enc := r.Header.Get("Content-Encoding")
	if enc == "" {
		return src, r.ContentLength, nil
	}
	if !strings.EqualFold(enc, "gzip") {
		return nil, 0, &statusError{
			status: http.StatusUnsupportedMediaType,
			err:    fmt.Errorf("unsupported Content-Encoding %q", enc),
		}
	}
	zr, err := gzip.NewReader(src)
	if err != nil {
		return nil, 0, &statusError{
			status: http.StatusBadRequest,
			err:    fmt.Errorf("gzip body: %w", err),
		}
	}
	// Content-Length counts wire bytes; what they inflate to is unknown.
	return &capReader{io.LimitedReader{R: zr, N: s.cfg.maxBody + 1}, s.cfg.maxBody}, -1, nil
}

// bodyError maps a failed body read to its status: the cap's 413, from
// MaxBytesReader or capReader, or else a 400.
func bodyError(err error, what string) *statusError {
	var se *statusError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &se): // capReader's 413: already a status
		return se
	case errors.As(err, &mbe):
		return &statusError{status: http.StatusRequestEntityTooLarge, err: err}
	}
	return &statusError{status: http.StatusBadRequest, err: fmt.Errorf("%s: %w", what, err)}
}

// readBody reads one whole request body through openBody, into a buffer
// from the server's free list when one holds the declared length. An
// honest declared length sizes the buffer, so the body is walked once
// and never copied by growth.
func readBody[B body](s *server, w http.ResponseWriter, r *http.Request, read bodyReader[B]) (b B, serr *statusError) {
	src, hint, serr := s.openBody(w, r)
	if serr != nil {
		return b, serr
	}
	b, err := read(src, hint, s.bodies.Get(int(hint)+1))
	if err != nil {
		return b, bodyError(err, "reading body")
	}
	return b, nil
}

// capReader holds a decompressed stream to the body cap by failing the
// read that crosses it: its limit starts one byte past the cap, which is
// enough to prove the overflow without inflating the whole bomb.
type capReader struct {
	io.LimitedReader
	max int64
}

func (c *capReader) Read(p []byte) (int, error) {
	n, err := c.LimitedReader.Read(p)
	if c.N <= 0 {
		return n, &statusError{
			status: http.StatusRequestEntityTooLarge,
			err:    fmt.Errorf("decompressed body exceeds %d bytes", c.max),
		}
	}
	return n, err
}

// gzipResponses negotiates response compression: when the client
// accepts gzip, application/json bodies are compressed. The cluster
// peer frames (application/octet-stream) pass through untouched so
// their CRC covers exactly the bytes on the wire.
func gzipResponses(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Add("Vary", "Accept-Encoding")
		if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			next.ServeHTTP(w, r)
			return
		}
		gw := &gzipWriter{ResponseWriter: w}
		defer gw.close()
		next.ServeHTTP(gw, r)
	})
}

// gzipWriter decides on the first write (when Content-Type is known)
// whether to compress, so non-JSON responses keep their exact bytes.
type gzipWriter struct {
	http.ResponseWriter
	zw      *gzip.Writer
	decided bool
}

func (g *gzipWriter) decide() {
	if g.decided {
		return
	}
	g.decided = true
	if strings.HasPrefix(g.Header().Get("Content-Type"), "application/json") {
		g.Header().Set("Content-Encoding", "gzip")
		g.Header().Del("Content-Length")
		g.zw = gzipPool.Get().(*gzip.Writer)
		g.zw.Reset(g.ResponseWriter)
	}
}

func (g *gzipWriter) WriteHeader(code int) {
	g.decide()
	g.ResponseWriter.WriteHeader(code)
}

func (g *gzipWriter) Write(p []byte) (int, error) {
	g.decide()
	if g.zw != nil {
		return g.zw.Write(p)
	}
	return g.ResponseWriter.Write(p)
}

// close flushes the compressor and returns it to the pool; a response
// that never wrote stays empty.
func (g *gzipWriter) close() {
	if g.zw != nil {
		_ = g.zw.Close()
		gzipPool.Put(g.zw)
		g.zw = nil
	}
}
