package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer/cache"
)

// postCycles sends one /v1/cycles request through the full handler stack.
func postCycles(t testing.TB, s *server, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/cycles", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/octet-stream")
	rec := httptest.NewRecorder()
	s.handler().ServeHTTP(rec, req)
	return rec
}

// TestCyclesEndpoint drives POST /v1/cycles in both cache modes. The
// synthetic trace's 40 evenly spaced MFC gets are as periodic as a
// trace can be, so detection must fire and count one cycle per record.
func TestCyclesEndpoint(t *testing.T) {
	data := buildNamedTrace(t, "wl", 40)

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

			rec := postCycles(t, s, data)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d, body %s", rec.Code, rec.Body.String())
			}
			var rep struct {
				Workload    string `json:"workload"`
				TotalCycles int    `json:"totalCycles"`
				Runs        []struct {
					Detected bool `json:"detected"`
				} `json:"runs"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Workload != "wl" || len(rep.Runs) != 1 || !rep.Runs[0].Detected {
				t.Fatalf("cycles report = %+v, want one detected run for workload wl", rep)
			}
			if rep.TotalCycles == 0 {
				t.Fatal("periodic trace detected but reports zero cycles")
			}
		})
	}
}

// TestCyclesEndpointCachedArtifact verifies the second identical request
// is served from the cached artifact: same bytes out, no second trace
// load (one miss, then hits).
func TestCyclesEndpointCachedArtifact(t *testing.T) {
	data := buildNamedTrace(t, "wl", 40)
	s := newServer(defaultConfig(), quietLogger())

	first := postCycles(t, s, data)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: status %d", first.Code)
	}
	second := postCycles(t, s, data)
	if second.Code != http.StatusOK {
		t.Fatalf("second request: status %d", second.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cached cycles artifact differs from the first render")
	}
	st := s.cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("cache stats %+v: want exactly 1 miss for one distinct image", st)
	}
	if st.Hits < 1 {
		t.Fatalf("cache stats %+v: second request should have hit", st)
	}
	if _, ok := s.cache.Peek(cache.KeyOf(data), cache.KindCycles); !ok {
		t.Fatal("cycles artifact not peekable after a served request")
	}
}

// TestDiffEndpointModes drives /v1/diff?mode=: align adds the per-cycle
// layer to the JSON document, an unknown mode is a clean 400, and no
// mode keeps the document cycle-free (the compatibility contract).
func TestDiffEndpointModes(t *testing.T) {
	a := buildNamedTrace(t, "wl", 40)
	b := buildNamedTrace(t, "wl", 80)
	body := diffBody(t, a, b)
	ct := "multipart/form-data; boundary=" + diffBoundary

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
			h := s.handler()

			post := func(path string) *httptest.ResponseRecorder {
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
				req.Header.Set("Content-Type", ct)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				return rec
			}

			rec := post("/v1/diff?mode=align")
			if rec.Code != http.StatusOK {
				t.Fatalf("mode=align: status %d, body %s", rec.Code, rec.Body.String())
			}
			var rep struct {
				Cycles *struct {
					Mode string `json:"mode"`
				} `json:"cycles"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Cycles == nil || rep.Cycles.Mode != "align" {
				t.Fatalf("mode=align response carries no align cycle layer: %s", rec.Body.String())
			}

			rec = post("/v1/diff?mode=bogus")
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("mode=bogus: status %d, want 400; body %s", rec.Code, rec.Body.String())
			}
			if !strings.Contains(rec.Body.String(), "mode") {
				t.Fatalf("mode=bogus error does not mention the mode: %s", rec.Body.String())
			}

			rec = post("/v1/diff")
			if rec.Code != http.StatusOK {
				t.Fatalf("no mode: status %d", rec.Code)
			}
			if bytes.Contains(rec.Body.Bytes(), []byte(`"cycles"`)) {
				t.Fatal("mode-less diff response grew a cycles key")
			}
		})
	}
}
