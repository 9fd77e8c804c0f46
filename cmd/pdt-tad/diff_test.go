package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer/cache"
)

// diffBoundary is the fixed multipart boundary the test requests use.
const diffBoundary = "pdtdiffboundary"

// diffBody encodes two trace images as the multipart body /v1/diff
// accepts (fields "a" and "b").
func diffBody(t testing.TB, a, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.SetBoundary(diffBoundary); err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		name string
		data []byte
	}{{"a", a}, {"b", b}} {
		fw, err := mw.CreateFormFile(side.name, side.name+".pdt")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(side.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postDiff sends one /v1/diff request through the full handler stack.
func postDiff(t testing.TB, s *server, body []byte, contentType string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/diff", bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	s.handler().ServeHTTP(rec, req)
	return rec
}

// corruptTrace flips a run of bytes in the middle of a valid image —
// recoverable damage, so the doctor reports partial confidence.
func corruptTrace(data []byte) []byte {
	bad := append([]byte(nil), data...)
	for i := len(bad) / 2; i < len(bad)/2+32 && i < len(bad); i++ {
		bad[i] ^= 0xFF
	}
	return bad
}

// TestDiffEndpoint drives the happy path through both request encodings
// and both cache modes.
func TestDiffEndpoint(t *testing.T) {
	a := buildNamedTrace(t, "wl", 40)
	b := buildNamedTrace(t, "wl", 80)

	for _, tc := range []struct {
		name  string
		cache bool
	}{{"cached", true}, {"uncached", false}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultConfig()
			if !tc.cache {
				cfg.cacheBytes, cfg.cacheEntries = 0, 0
			}
			s := newServer(cfg, quietLogger())

			rec := postDiff(t, s, diffBody(t, a, b), "multipart/form-data; boundary="+diffBoundary)
			if rec.Code != http.StatusOK {
				t.Fatalf("multipart diff: status %d, body %s", rec.Code, rec.Body.String())
			}
			var rep struct {
				Workload    string `json:"workload"`
				RecordDelta int64  `json:"recordDelta"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Workload != "wl" || rep.RecordDelta != 40 {
				t.Fatalf("diff report = %+v, want workload wl with recordDelta 40", rep)
			}

			jsonBody := fmt.Sprintf(`{"a":%q,"b":%q}`,
				base64.StdEncoding.EncodeToString(a), base64.StdEncoding.EncodeToString(b))
			rec = postDiff(t, s, []byte(jsonBody), "application/json")
			if rec.Code != http.StatusOK {
				t.Fatalf("json diff: status %d, body %s", rec.Code, rec.Body.String())
			}
			var rep2 struct {
				RecordDelta int64 `json:"recordDelta"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &rep2); err != nil {
				t.Fatal(err)
			}
			if rep2.RecordDelta != rep.RecordDelta {
				t.Fatalf("json and multipart encodings disagree: %d vs %d",
					rep2.RecordDelta, rep.RecordDelta)
			}
		})
	}
}

// TestDiffEndpointCacheReuse verifies each side loads once and the diff
// itself is cached: the first diff misses once per distinct image, and
// in every mode a repeat of the same pair returns the first response's
// bytes as one hit on the pair's artifact, with no load.
func TestDiffEndpointCacheReuse(t *testing.T) {
	a := buildNamedTrace(t, "wl", 40)
	b := buildNamedTrace(t, "wl", 80)
	body, ct := diffBody(t, a, b), "multipart/form-data; boundary="+diffBoundary
	s := newServer(defaultConfig(), quietLogger())
	for _, mode := range []string{"", "match", "align"} {
		path := "/v1/diff?mode=" + mode
		post := func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.Header.Set("Content-Type", ct)
			rec := httptest.NewRecorder()
			s.handler().ServeHTTP(rec, req)
			return rec
		}
		first := post()
		if first.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", path, first.Code, first.Body.String())
		}
		before := s.cache.Stats()
		if before.Misses != 2 {
			t.Fatalf("%s: cache stats %+v: want exactly 2 misses (one per distinct image)", path, before)
		}
		again := post()
		if again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("%s: repeat gave status %d and different bytes", path, again.Code)
		}
		st := s.cache.Stats()
		if st.Hits != before.Hits+1 || st.Misses != 2 || st.Dedups != before.Dedups {
			t.Fatalf("%s: stats %+v after %+v, want one hit on the pair and no load", path, st, before)
		}
		if _, ok := s.cache.Peek(cache.PairKey(cache.KeyOf(a), cache.KeyOf(b)), "diff"+mode); !ok {
			t.Fatalf("%s: no artifact under the pair key", path)
		}
	}
}

// TestDiffServedFromDiskAfterRestart: a diff adopted under its pair key
// is written through to the disk tier, so a daemon restarted over the
// same -state-dir serves the same bytes without loading either side.
func TestDiffServedFromDiskAfterRestart(t *testing.T) {
	body := diffBody(t, buildNamedTrace(t, "wl", 40), buildNamedTrace(t, "wl", 80))
	ct := "multipart/form-data; boundary=" + diffBoundary
	dir := t.TempDir()
	postTo := func(url string) []byte {
		resp, err := http.Post(url+"/v1/diff?mode=align", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, err %v, body %s", resp.StatusCode, err, out)
		}
		return out
	}

	s1, ts1 := durableServer(t, dir, nil)
	want := postTo(ts1.URL)
	ts1.Close()
	s1.closeState()

	s2, ts2 := durableServer(t, dir, nil)
	if got := postTo(ts2.URL); !bytes.Equal(got, want) {
		t.Fatal("the diff after a restart differs from the one before it")
	}
	if st := s2.cache.Stats(); st.Misses != 0 {
		t.Fatalf("the restarted daemon loaded a side: %+v", st)
	}
	if dst := s2.cache.Disk().Stats(); dst.Hits != 1 {
		t.Fatalf("disk stats %+v: want the diff as one disk hit", dst)
	}
}

// TestDiffBadModeSkipsCache: a ?mode= that Diff rejects names no cache
// kind, so it leaves no artifact in either tier and no file in the state
// directory, whatever the value spells; and it keeps its place in the
// order of errors — a corrupt side is still a 422 and a workload
// mismatch still the mismatch's 400.
func TestDiffBadModeSkipsCache(t *testing.T) {
	good := buildNamedTrace(t, "wl", 40)
	other := buildNamedTrace(t, "wl", 80)
	corrupt := corruptTrace(buildNamedTrace(t, "wl", 120))
	mismatched := buildNamedTrace(t, "mismatched", 40)
	ct := "multipart/form-data; boundary=" + diffBoundary
	dir := t.TempDir()
	s, ts := durableServer(t, dir, nil)
	for _, tc := range []struct {
		a, b   []byte
		status int
		want   string
	}{
		{good, other, http.StatusBadRequest, "unknown mode"},
		{corrupt, good, http.StatusUnprocessableEntity, `"side": "a"`},
		{good, mismatched, http.StatusBadRequest, "different workloads"},
	} {
		for _, mode := range []string{"bogus", "..%2F..%2Fescape", "match%2F"} {
			resp, err := http.Post(ts.URL+"/v1/diff?mode="+mode, ct, bytes.NewReader(diffBody(t, tc.a, tc.b)))
			if err != nil {
				t.Fatal(err)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status || !strings.Contains(string(out), tc.want) {
				t.Fatalf("mode %s: status %d, want %d with %q; body %s", mode, resp.StatusCode, tc.status, tc.want, out)
			}
		}
	}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.Contains(d.Name(), ".diff") {
			t.Errorf("a rejected mode left %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.cache.Peek(cache.PairKey(cache.KeyOf(good), cache.KeyOf(other)), "diffbogus"); ok {
		t.Fatal("a rejected mode left an artifact under the pair key")
	}
	if st := s.cache.Stats(); st.Entries != 4 {
		t.Fatalf("cache stats %+v: want the three loaded images and the corrupt one's doctor report, no pair entry", st)
	}
}

// TestDiffEndpointNegative is the table-driven negative-path sweep: a
// corrupt side must come back as a doctor-style 422 naming the side with
// partial confidence, a workload mismatch as a clear 400, and malformed
// bodies as 400 — in both cache modes.
func TestDiffEndpointNegative(t *testing.T) {
	good := buildNamedTrace(t, "wl", 40)
	other := buildNamedTrace(t, "mismatched", 40)
	corrupt := corruptTrace(buildNamedTrace(t, "wl", 80))

	cases := []struct {
		name        string
		body        func(t *testing.T) []byte
		contentType string
		wantStatus  int
		wantInBody  []string
		checkDoctor string // side whose doctor report must appear, "" = none
	}{
		{
			name:        "corrupt side a",
			body:        func(t *testing.T) []byte { return diffBody(t, corrupt, good) },
			contentType: "multipart/form-data; boundary=" + diffBoundary,
			wantStatus:  http.StatusUnprocessableEntity,
			wantInBody:  []string{`"side": "a"`, "corrupt"},
			checkDoctor: "a",
		},
		{
			name:        "corrupt side b",
			body:        func(t *testing.T) []byte { return diffBody(t, good, corrupt) },
			contentType: "multipart/form-data; boundary=" + diffBoundary,
			wantStatus:  http.StatusUnprocessableEntity,
			wantInBody:  []string{`"side": "b"`},
			checkDoctor: "b",
		},
		{
			name:        "mismatched workloads",
			body:        func(t *testing.T) []byte { return diffBody(t, good, other) },
			contentType: "multipart/form-data; boundary=" + diffBoundary,
			wantStatus:  http.StatusBadRequest,
			wantInBody:  []string{"different workloads", "wl", "mismatched"},
		},
		{
			name:        "missing side b",
			body:        func(t *testing.T) []byte { return diffBody(t, good, nil) },
			contentType: "multipart/form-data; boundary=" + diffBoundary,
			wantStatus:  http.StatusBadRequest,
			wantInBody:  []string{"both sides"},
		},
		{
			name:        "not multipart, not json",
			body:        func(t *testing.T) []byte { return good },
			contentType: "application/octet-stream",
			wantStatus:  http.StatusBadRequest,
		},
		{
			name:        "multipart without boundary",
			body:        func(t *testing.T) []byte { return diffBody(t, good, good) },
			contentType: "multipart/form-data",
			wantStatus:  http.StatusBadRequest,
			wantInBody:  []string{"boundary"},
		},
	}

	for _, mode := range []struct {
		name  string
		cache bool
	}{{"cached", true}, {"uncached", false}} {
		t.Run(mode.name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					cfg := defaultConfig()
					if !mode.cache {
						cfg.cacheBytes, cfg.cacheEntries = 0, 0
					}
					s := newServer(cfg, quietLogger())
					rec := postDiff(t, s, tc.body(t), tc.contentType)
					if rec.Code != tc.wantStatus {
						t.Fatalf("status %d, want %d; body %s", rec.Code, tc.wantStatus, rec.Body.String())
					}
					body := rec.Body.String()
					var v any
					if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
						t.Fatalf("status %d with non-JSON body %q", rec.Code, body)
					}
					for _, want := range tc.wantInBody {
						if !strings.Contains(body, want) {
							t.Errorf("body missing %q: %s", want, body)
						}
					}
					if tc.checkDoctor != "" {
						var doc struct {
							Side   string `json:"side"`
							Doctor struct {
								Verdict     string  `json:"verdict"`
								Recoverable bool    `json:"recoverable"`
								Confidence  float64 `json:"confidence"`
							} `json:"doctor"`
						}
						if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
							t.Fatal(err)
						}
						if doc.Side != tc.checkDoctor {
							t.Errorf("doc.side = %q, want %q", doc.Side, tc.checkDoctor)
						}
						if doc.Doctor.Verdict == "" {
							t.Error("422 body carries no doctor verdict")
						}
						if doc.Doctor.Recoverable && !(doc.Doctor.Confidence > 0 && doc.Doctor.Confidence < 1) {
							t.Errorf("recoverable corrupt side should report partial confidence, got %v",
								doc.Doctor.Confidence)
						}
					}
				})
			}
		})
	}
}
