package main

import (
	"fmt"
	"net/http"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cycles"
)

// The oracle: every op's output is checked, and an op that fails a check
// is a failed op in fail_share — never a log line. Nothing here pins a
// digest in the source: reference outputs are produced during set-up by
// the build under test (Want), and the checks below tie them to
// properties that hold for any correct build — the tracer's own record
// count, Validate, the configured iteration count, stream == batch,
// daemon == in-process.

// checkRun checks one simulated, traced run against the corpus member
// the same spec produced at set-up: the simulator is deterministic, so
// the bytes must be identical, and nothing may have been dropped.
func checkRun(t *trace, res simResult) error {
	if got := res.stats.SPERecords + res.stats.PPERecords; got != t.Records {
		return fmt.Errorf("%s: tracer wrote %d records, set-up run wrote %d", t.Name, got, t.Records)
	}
	if res.stats.Dropped != 0 {
		return fmt.Errorf("%s: tracer dropped %d records", t.Name, res.stats.Dropped)
	}
	if got := digest(res.bytes); got != t.SHA {
		return fmt.Errorf("%s: trace bytes differ from the set-up run (sha %.12s, want %.12s)", t.Name, got, t.SHA)
	}
	return nil
}

// checkLoaded checks a load: every record the tracer wrote came back as
// an event, and validation found no error.
func checkLoaded(t *trace, events int64, issues []analyzer.Issue) error {
	if uint64(events) != t.Records {
		return fmt.Errorf("%s: loaded %d events, tracer wrote %d records", t.Name, events, t.Records)
	}
	if errs := analyzer.Errors(issues); len(errs) > 0 {
		return fmt.Errorf("%s: validate: %d errors, first: %s", t.Name, len(errs), errs[0])
	}
	return nil
}

// checkCycles checks cycle detection against the iteration count the
// workload was configured with (the property cycles_test.go pins).
func checkCycles(t *trace, rep *cycles.Report) error {
	if t.Cycles == 0 {
		return nil
	}
	if len(rep.Runs) == 0 {
		return fmt.Errorf("%s: cycle detection analysed no runs", t.Name)
	}
	for _, run := range rep.Runs {
		if !run.Detected || len(run.Cycles) != t.Cycles {
			return fmt.Errorf("%s: run %d: detected=%v with %d cycles, configured %d",
				t.Name, run.Run, run.Detected, len(run.Cycles), t.Cycles)
		}
	}
	return nil
}

// setWant records a reference output.
func (t *trace) setWant(name string, out []byte) {
	t.Want[name] = digest(out)
	t.OutBytes[name] = len(out)
}

// checkOutput compares rendered bytes with the reference output of the
// same name.
func checkOutput(t *trace, name string, out []byte) error {
	want, ok := t.Want[name]
	if !ok {
		return fmt.Errorf("%s: no reference output %q", t.Name, name)
	}
	if got := digest(out); got != want {
		return fmt.Errorf("%s: %s output differs from reference (%d bytes, sha %.12s, want %.12s)",
			t.Name, name, len(out), got, want)
	}
	return nil
}

// checkResponse checks one daemon reply: 200, and byte-identical to the
// in-process cache.Render of the same trace.
func checkResponse(t *trace, kind string, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: POST /v1/%s: status %d: %.200s", t.Name, kind, status, body)
	}
	return checkOutput(t, "serve/"+kind, body)
}
