package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// buildValidTrace produces a structurally valid trace image for mutation
// (the cmd-level sibling of traceio's buildValid).
func buildValidTrace(t *testing.T) []byte {
	return buildNamedTrace(t, "fuzz", 40)
}

// buildNamedTrace builds a valid single-core trace image with a chosen
// workload name and record count, so diff tests can produce same- and
// cross-workload pairs with distinct content addresses.
func buildNamedTrace(t *testing.T, workload string, records int) []byte {
	t.Helper()
	var out bytes.Buffer
	w, err := traceio.NewWriter(&out, traceio.Header{
		Version: traceio.Version, NumSPEs: 8, TimebaseDiv: 40, ClockHz: 3_200_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMeta(&traceio.Meta{
		Workload: workload,
		Anchors:  []traceio.Anchor{{SPE: 0, Timebase: 100, Loaded: 0xFFFFFFFF, Program: "p"}},
	}); err != nil {
		t.Fatal(err)
	}
	var data []byte
	for i := 0; i < records; i++ {
		r := event.Record{ID: event.SPEMFCGet, Core: 0, Flags: event.FlagDecrTime,
			Time: uint64(i * 10), Args: []uint64{0, 64, 128, uint64(i % 16)}}
		data, err = r.AppendTo(data)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteChunk(traceio.Chunk{Core: 0, AnchorIdx: 0, Data: data}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// FuzzTADHandler drives the full handler stack with mutated trace uploads
// (flip, insert, delete, truncate — the FuzzSalvage operation set): any
// status is acceptable except a 500, which would mean a panic or internal
// failure escaped the analyzer's hardening; error responses must carry a
// JSON body.
func FuzzTADHandler(f *testing.F) {
	f.Add(uint32(0), uint8(0), uint8(0x5A), uint16(0))
	f.Add(uint32(30), uint8(1), uint8(0xC5), uint16(0)) // insert a fake chunk magic
	f.Add(uint32(60), uint8(2), uint8(0), uint16(0))    // delete inside meta
	f.Add(uint32(100), uint8(0), uint8(0xFF), uint16(50))
	f.Add(uint32(4), uint8(0), uint8(1), uint16(0)) // version field flip
	f.Add(uint32(0), uint8(3), uint8(0), uint16(9)) // footer-only truncation

	f.Fuzz(func(t *testing.T, pos uint32, op, val uint8, cut uint16) {
		valid := buildValidTrace(t)
		data := append([]byte(nil), valid...)
		p := int(pos) % len(data)
		switch op % 4 {
		case 0: // flip
			data[p] ^= val | 1
		case 1: // insert
			data = append(data[:p], append([]byte{val}, data[p:]...)...)
		case 2: // delete
			data = append(data[:p], data[p+1:]...)
		case 3: // truncate from the end
			n := int(cut) % (len(data) + 1)
			data = data[:len(data)-n]
		}
		if int(cut) > 0 && op%4 != 3 {
			n := int(cut) % (len(data) + 1)
			data = data[:len(data)-n]
		}

		s := newServer(defaultConfig(), quietLogger())
		h := s.handler()
		for _, kind := range cache.AnalysisKinds {
			path := "/v1/" + kind
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			res := rec.Result()
			if res.StatusCode == http.StatusInternalServerError {
				t.Fatalf("%s: mutated trace produced a 500 (escaped panic?): %s",
					path, rec.Body.String())
			}
			if res.StatusCode != http.StatusOK && res.StatusCode != http.StatusBadRequest &&
				res.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s: unexpected status %d", path, res.StatusCode)
			}
			var v any
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				t.Fatalf("%s: status %d with non-JSON body %q",
					path, res.StatusCode, rec.Body.String())
			}
		}

		// /v1/diff with the pristine base as side a and the mutated bytes
		// as side b: a clean diff, a 4xx, anything but a 500 — and the
		// body must stay JSON either way. The raw mutated bytes are also
		// thrown at the endpoint directly (they parse as neither encoding,
		// which must map to a clean 400). The same pair goes through
		// mode=align so the per-cycle layer sees mutated inputs too.
		diffReqs := []struct {
			path string
			body []byte
			ct   string
		}{
			{"/v1/diff", diffBody(t, valid, data), "multipart/form-data; boundary=" + diffBoundary},
			{"/v1/diff?mode=align", diffBody(t, valid, data), "multipart/form-data; boundary=" + diffBoundary},
			{"/v1/diff", data, "application/octet-stream"},
		}
		for _, dr := range diffReqs {
			req := httptest.NewRequest(http.MethodPost, dr.path, bytes.NewReader(dr.body))
			req.Header.Set("Content-Type", dr.ct)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			res := rec.Result()
			if res.StatusCode == http.StatusInternalServerError {
				t.Fatalf("/v1/diff: mutated side produced a 500: %s", rec.Body.String())
			}
			switch res.StatusCode {
			case http.StatusOK, http.StatusBadRequest,
				http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			default:
				t.Fatalf("/v1/diff: unexpected status %d", res.StatusCode)
			}
			var v any
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				t.Fatalf("/v1/diff: status %d with non-JSON body %q",
					res.StatusCode, rec.Body.String())
			}
		}
	})
}
