package cache_test

// Absolute pin on the served bytes: name, kind, length and SHA-256 of
// every cache.AnalysisKinds artifact — what POST /v1/<kind> returns — for
// every workload at its default parameters plus the benchmark's large
// synthetic trace, against testdata/artifacts.golden. A renderer that
// drifts by one byte shows up here even when the CLI and the daemon
// still agree with each other. -update is only for a change that means
// to move what is served.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/harness"
	"github.com/celltrace/pdt/internal/workloads"
)

var updateArtifactGolden = flag.Bool("update", false, "rewrite testdata/artifacts.golden")

const artifactGoldenPath = "testdata/artifacts.golden"

// namedImage is one serialized trace and the name the goldens give it.
type namedImage struct {
	name string
	data []byte
}

// workloadTraces traces every workload at its default parameters (what
// `pdt-run -workload <w>` writes).
func workloadTraces(t *testing.T) []namedImage {
	t.Helper()
	var out []namedImage
	for _, w := range workloads.Names() {
		cfg := core.DefaultTraceConfig()
		res, err := harness.Run(harness.Spec{Workload: w, Trace: &cfg})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		out = append(out, namedImage{w, res.TraceBytes})
	}
	return out
}

// servedTraces are the twelve traces the served-bytes golden and the
// weight calibration cover: the workload traces, then the benchmark's
// large synthetic trace (10000 events, 3 MB).
func servedTraces(t *testing.T) []namedImage {
	return append(workloadTraces(t), namedImage{"synthetic.10k", traceImage(t, 10000)})
}

func TestArtifactDigests(t *testing.T) {
	if raceEnabled {
		t.Skip("a byte pin; the race detector only slows it")
	}
	ctx := context.Background()
	var got bytes.Buffer
	for _, im := range servedTraces(t) {
		c := cache.New(0, 0)
		for _, kind := range cache.AnalysisKinds {
			b, err := c.Artifact(ctx, im.data, kind, analyzer.DefaultServiceLimits())
			if err != nil {
				t.Fatalf("%s %s: %v", im.name, kind, err)
			}
			fmt.Fprintf(&got, "%s %s %d %x\n", im.name, kind, len(b), sha256.Sum256(b))
		}
	}
	if *updateArtifactGolden {
		if err := os.WriteFile(artifactGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(artifactGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden lists %d artifacts, test rendered %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("served bytes changed (trace, kind, length, sha256):\n got  %s\n want %s\n"+
				"(compare `pdt-ta <kind> -json` with the previous commit's; -update only for an intended change)",
				gotLines[i], wantLines[i])
		}
	}
}
