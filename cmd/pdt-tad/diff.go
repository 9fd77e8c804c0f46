package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/analyzer/cycles"
	"github.com/celltrace/pdt/internal/analyzer/diff"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// diffSides extracts the two trace images from a /v1/diff request body.
// Two encodings are accepted:
//
//   - multipart/form-data with parts named "a" and "b" (curl -F a=@x.pdt
//     -F b=@y.pdt), and
//   - a JSON document {"a": "<base64>", "b": "<base64>"}.
func diffSides(r *http.Request, data []byte) (a, b []byte, err error) {
	ct := r.Header.Get("Content-Type")
	mt, params, _ := mime.ParseMediaType(ct)
	if mt == "multipart/form-data" {
		boundary := params["boundary"]
		if boundary == "" {
			return nil, nil, errors.New("multipart body without boundary")
		}
		mr := multipart.NewReader(bytes.NewReader(data), boundary)
		for {
			part, err := mr.NextPart()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, nil, fmt.Errorf("reading multipart body: %w", err)
			}
			buf, err := io.ReadAll(part)
			if err != nil {
				return nil, nil, fmt.Errorf("reading part %q: %w", part.FormName(), err)
			}
			switch part.FormName() {
			case "a":
				a = buf
			case "b":
				b = buf
			}
		}
	} else {
		var body struct {
			A []byte `json:"a"`
			B []byte `json:"b"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			return nil, nil, fmt.Errorf(`diff body must be multipart (fields "a","b") or JSON {"a":base64,"b":base64}: %w`, err)
		}
		a, b = body.A, body.B
	}
	if len(a) == 0 || len(b) == 0 {
		return nil, nil, errors.New(`diff needs both sides: multipart fields (or JSON keys) "a" and "b"`)
	}
	return a, b, nil
}

// renderDiff serves POST /v1/diff: load both sides through the
// content-addressed cache (so each distinct image loads once no matter
// how many diffs reference it), diff them, and emit the structured
// report. A corrupt side comes back as a doctor-style 422 naming the
// side and carrying its recovery report with partial confidence; a
// workload mismatch or a bad ?mode= is a clear 400.
//
// The optional ?mode=match|align query parameter turns on the per-cycle
// layer; the critical paths and cycle reports come from the handles'
// memoized values, so repeated diffs of the same images never recompute
// them.
func (s *server) renderDiff(ctx context.Context, r *http.Request, env envelope) ([]byte, error) {
	da, db, err := diffSides(r, env)
	if err != nil {
		return nil, err
	}
	ha, hb, err := s.traces().LoadPair(ctx, da, db, s.cfg.limits)
	if err != nil {
		return nil, s.diffLoadError(ctx, err)
	}
	opt := diff.Options{
		Mode:      r.URL.Query().Get("mode"),
		CritPathA: ha.Value(cache.KindCritPath).(*analyzer.CriticalPath),
		CritPathB: hb.Value(cache.KindCritPath).(*analyzer.CriticalPath),
	}
	if opt.Mode != "" {
		opt.CyclesA = ha.Value(cache.KindCycles).(*cycles.Report)
		opt.CyclesB = hb.Value(cache.KindCycles).(*cycles.Report)
	}
	rep, err := diff.Diff(ha.Trace(), hb.Trace(), opt)
	if err != nil {
		if errors.Is(err, diff.ErrWorkloadMismatch) || errors.Is(err, diff.ErrBadMode) {
			return nil, &statusError{status: http.StatusBadRequest, err: err}
		}
		return nil, err
	}
	var buf bytes.Buffer
	err = rep.WriteJSON(&buf)
	return buf.Bytes(), err
}

// diffLoadError maps a one-sided load failure: corrupt bytes become a
// doctor-style 422 whose body names the side and embeds that side's
// recovery report (verdict plus partial confidence), everything else
// passes through to the generic status mapping.
func (s *server) diffLoadError(ctx context.Context, err error) error {
	var se *cache.SideError
	if !errors.As(err, &se) || !traceio.IsCorrupt(se.Err) {
		return err
	}
	doc := struct {
		Error  string          `json:"error"`
		Side   string          `json:"side"`
		Doctor json.RawMessage `json:"doctor,omitempty"`
	}{
		Error: fmt.Sprintf("side %s is corrupt: %v — see embedded doctor report", se.Side, se.Err),
		Side:  se.Side,
	}
	if d, derr := s.traces().Artifact(ctx, se.Data, cache.KindDoctor, s.cfg.limits); derr == nil {
		doc.Doctor = json.RawMessage(d)
	}
	body, merr := json.MarshalIndent(&doc, "", "  ")
	if merr != nil {
		body = nil
	}
	return &statusError{status: http.StatusUnprocessableEntity, body: body, err: se}
}
