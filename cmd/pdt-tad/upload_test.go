package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/kinds"
)

// get fetches a URL and returns the response plus its body.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := new(bytes.Buffer)
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// uploadDoc is the envelope /v1/live and /complete return.
type uploadDoc struct {
	ID        string          `json:"id"`
	Offset    int64           `json:"offset"`
	Events    int64           `json:"events"`
	Final     bool            `json:"final"`
	Complete  bool            `json:"complete"`
	Truncated bool            `json:"truncated"`
	Key       string          `json:"key"`
	Summary   json.RawMessage `json:"summary"`
}

func createUpload(t *testing.T, base string) string {
	t.Helper()
	resp, body := post(t, base+"/v1/upload", nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || doc.ID == "" {
		t.Fatalf("create: bad body %s (%v)", body, err)
	}
	return doc.ID
}

func appendChunk(t *testing.T, base, id string, offset int64, chunk []byte, gz bool) (*http.Response, []byte) {
	t.Helper()
	body := chunk
	if gz {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(chunk)
		zw.Close()
		body = buf.Bytes()
	}
	req, err := http.NewRequest("POST",
		fmt.Sprintf("%s/v1/upload/%s?offset=%d", base, id, offset), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if gz {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := new(bytes.Buffer)
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

// TestUploadChunkedMatchesBatch streams a real trace in small chunks
// (alternating plain and gzip transport), reads a live snapshot along
// the way, completes, and checks the final summary is byte-identical to
// the whole-body /v1/summary of the same trace — and that the upload
// pre-warmed the cache under the same content key.
func TestUploadChunkedMatchesBatch(t *testing.T) {
	s, ts := testServer(t, nil)
	trace := smallTrace(t)

	id := createUpload(t, ts.URL)
	const chunkSize = 8 << 10
	var off int64
	for i := 0; off < int64(len(trace)); i++ {
		end := off + chunkSize
		if end > int64(len(trace)) {
			end = int64(len(trace))
		}
		resp, body := appendChunk(t, ts.URL, id, off, trace[off:end], i%2 == 1)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append at %d: status %d: %s", off, resp.StatusCode, body)
		}
		var ack struct {
			Offset int64 `json:"offset"`
		}
		if err := json.Unmarshal(body, &ack); err != nil || ack.Offset != end {
			t.Fatalf("append at %d: ack %s (want offset %d)", off, body, end)
		}
		off = end

		if i == 2 {
			resp, body := get(t, ts.URL+"/v1/live/"+id)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("live: status %d: %s", resp.StatusCode, body)
			}
			var live uploadDoc
			if err := json.Unmarshal(body, &live); err != nil {
				t.Fatalf("live: bad JSON: %v", err)
			}
			if live.Final || live.Complete {
				t.Fatalf("live mid-upload reported final=%v complete=%v", live.Final, live.Complete)
			}
			if live.Offset != off {
				t.Fatalf("live offset %d, want %d", live.Offset, off)
			}
		}
	}

	resp, body := post(t, ts.URL+"/v1/upload/"+id+"/complete", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete: status %d: %s", resp.StatusCode, body)
	}
	var fin uploadDoc
	if err := json.Unmarshal(body, &fin); err != nil {
		t.Fatalf("complete: bad JSON: %v", err)
	}
	if !fin.Final || !fin.Complete || fin.Truncated {
		t.Fatalf("complete: final=%v complete=%v truncated=%v", fin.Final, fin.Complete, fin.Truncated)
	}
	if fin.Key == "" {
		t.Fatal("complete: no content key")
	}

	// The streamed summary must match the batch endpoint's byte for byte
	// once both are compacted (the upload envelope re-indents the nested
	// document; the content must be identical).
	resp, batch := post(t, ts.URL+"/v1/summary", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary: status %d: %s", resp.StatusCode, batch)
	}
	var streamC, batchC bytes.Buffer
	if err := json.Compact(&streamC, fin.Summary); err != nil {
		t.Fatalf("compact stream summary: %v", err)
	}
	if err := json.Compact(&batchC, batch); err != nil {
		t.Fatalf("compact batch summary: %v", err)
	}
	if !bytes.Equal(streamC.Bytes(), batchC.Bytes()) {
		t.Errorf("streamed summary differs from batch:\nstream: %s\nbatch:  %s", streamC.Bytes(), batchC.Bytes())
	}

	// The upload adopted the artifact of every kind the stream folds: a
	// batch POST of each must be a cache hit, not a recompute, and serve
	// the bytes the batch kernel renders.
	tr, err := analyzer.Load(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	analyzer.Validate(tr)
	adopted := 0
	for _, k := range kinds.All {
		if k.FromStream == nil {
			continue
		}
		adopted++
		before := s.cache.Stats()
		resp, got := post(t, ts.URL+"/v1/"+k.Name, trace)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", k.Name, resp.StatusCode, got)
		}
		if st := s.cache.Stats(); st.Hits != before.Hits+1 || st.Misses != before.Misses {
			t.Errorf("batch %s after upload missed the cache (hits %d -> %d, misses %d -> %d)",
				k.Name, before.Hits, st.Hits, before.Misses, st.Misses)
		}
		var want bytes.Buffer
		if err := k.JSON(tr, k.Compute(tr), &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("adopted %s differs from batch:\nadopted: %s\nbatch:   %s", k.Name, got, want.Bytes())
		}
	}
	if adopted < 2 {
		t.Errorf("%d kinds adopted, want summary and profile", adopted)
	}
}

// TestUploadResume checks the 409 resume protocol: a chunk at the wrong
// offset is refused with the session's current offset, and re-slicing
// from there succeeds.
func TestUploadResume(t *testing.T) {
	_, ts := testServer(t, nil)
	trace := smallTrace(t)
	id := createUpload(t, ts.URL)

	cut := int64(len(trace) / 3)
	if resp, body := appendChunk(t, ts.URL, id, 0, trace[:cut], false); resp.StatusCode != http.StatusOK {
		t.Fatalf("first chunk: status %d: %s", resp.StatusCode, body)
	}

	// Replay the same chunk (offset 0): refused, current offset returned.
	resp, body := appendChunk(t, ts.URL, id, 0, trace[:cut], false)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("replay: status %d, want 409: %s", resp.StatusCode, body)
	}
	var conflict struct {
		Offset int64 `json:"offset"`
	}
	if err := json.Unmarshal(body, &conflict); err != nil || conflict.Offset != cut {
		t.Fatalf("replay: conflict doc %s (want offset %d)", body, cut)
	}

	// Resume from the advertised offset and finish.
	if resp, body := appendChunk(t, ts.URL, id, conflict.Offset, trace[cut:], true); resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: status %d: %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/v1/upload/"+id+"/complete", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete: status %d: %s", resp.StatusCode, body)
	}
	var fin uploadDoc
	if err := json.Unmarshal(body, &fin); err != nil || !fin.Complete {
		t.Fatalf("complete after resume: %s (%v)", body, err)
	}
}

// TestUploadGzipBomb is the mid-inflate admission regression test: a
// tiny gzip body that inflates far past every cap must be rejected with
// 413 while it is still being inflated — the decompressed-size checks
// run per slice, so the bomb is never fully expanded in memory.
func TestUploadGzipBomb(t *testing.T) {
	_, ts := testServer(t, func(c *config) {
		c.maxBody = 1 << 20
		c.maxUploadBytes = 1 << 20
	})
	id := createUpload(t, ts.URL)

	// A valid trace followed by 64 MiB of zeros: parseable all the way, so
	// the decompressed-size caps — not the format checks — are what reject
	// it. Compresses to well under the wire cap.
	var bomb bytes.Buffer
	zw := gzip.NewWriter(&bomb)
	zw.Write(smallTrace(t))
	zero := make([]byte, 1<<20)
	for i := 0; i < 64; i++ {
		zw.Write(zero)
	}
	zw.Close()
	if bomb.Len() >= 1<<20 {
		t.Fatalf("bomb did not compress: %d bytes", bomb.Len())
	}

	req, err := http.NewRequest("POST", ts.URL+"/v1/upload/"+id, bytes.NewReader(bomb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("gzip bomb: status %d, want 413", resp.StatusCode)
	}
}

// TestUploadDeclaredOversizeAppliesNothing: an append whose
// Content-Length is over -max-body is a 413 from the header alone, and
// the session is left as it was — no prefix of the refused chunk reaches
// the loader or moves the resume offset.
func TestUploadDeclaredOversizeAppliesNothing(t *testing.T) {
	const maxBody = 4096
	_, ts := testServer(t, func(c *config) { c.maxBody = maxBody })
	id := createUpload(t, ts.URL)
	resp, body := appendChunk(t, ts.URL, id, 0, smallTrace(t)[:maxBody+1], false)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize append: status %d, want 413: %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts.URL+"/v1/live/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live: status %d: %s", resp.StatusCode, body)
	}
	var live uploadDoc
	if err := json.Unmarshal(body, &live); err != nil {
		t.Fatalf("live: bad JSON: %v", err)
	}
	if live.Offset != 0 || live.Events != 0 {
		t.Fatalf("a refused append moved the session to offset %d, %d events; want 0, 0", live.Offset, live.Events)
	}
}

// TestUploadSessionLimit fills the registry and checks the next create
// is shed with 429 + Retry-After, then that DELETE frees a slot.
func TestUploadSessionLimit(t *testing.T) {
	_, ts := testServer(t, func(c *config) { c.maxUploads = 2 })
	a := createUpload(t, ts.URL)
	_ = createUpload(t, ts.URL)

	resp, body := post(t, ts.URL+"/v1/upload", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third create: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/upload/"+a, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("abort: status %d, want 204", dresp.StatusCode)
	}
	_ = createUpload(t, ts.URL) // slot freed
}

// TestUploadCorruptFailsSticky checks a hostile stream poisons the
// session: the first bad chunk is 422 and so is every later append.
func TestUploadCorruptFailsSticky(t *testing.T) {
	_, ts := testServer(t, nil)
	id := createUpload(t, ts.URL)

	// Long enough to cover the fixed header, so the magic check actually
	// runs (shorter prefixes are buffered pending more bytes).
	garbage := bytes.Repeat([]byte("not a PDT trace at all. "), 4)
	resp, body := appendChunk(t, ts.URL, id, 0, garbage, false)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt chunk: status %d, want 422: %s", resp.StatusCode, body)
	}
	resp, body = appendChunk(t, ts.URL, id, 0, []byte("more"), false)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("append after failure: status %d, want 422: %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/v1/upload/"+id+"/complete", nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("complete after failure: status %d, want 422: %s", resp.StatusCode, body)
	}
}

// TestLiveUnknownSession covers the 404s.
func TestLiveUnknownSession(t *testing.T) {
	_, ts := testServer(t, nil)
	for _, u := range []string{"/v1/live/deadbeef", "/v1/upload/deadbeef"} {
		var resp *http.Response
		var body []byte
		if u == "/v1/live/deadbeef" {
			resp, body = get(t, ts.URL+u)
		} else {
			resp, body = post(t, ts.URL+u, []byte("x"))
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404: %s", u, resp.StatusCode, body)
		}
	}
}
