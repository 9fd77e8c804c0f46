package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/workloads"
)

// Analysis kinds. The batch workload round-robins over all seven; the
// daemon serves the first five (diff needs two bodies and has its own
// endpoint shape, so it stays an in-process kind).
var (
	batchKinds  = []string{"summary", "profile", "gaps", "critpath", "cycles", "diff", "diffalign"}
	servedKinds = batchKinds[:5]
)

// spec is one corpus trace: a simulated workload and its parameters.
type spec struct {
	Name     string            `json:"name"`     // unique in the corpus
	Workload string            `json:"workload"` // simulated program
	Large    bool              `json:"large"`
	Params   map[string]string `json:"params"`
	// Cycles is the iteration count cycle detection must find in every
	// run of the trace (0 = not checked).
	Cycles int `json:"cycles,omitempty"`
}

func (s spec) class() string {
	if s.Large {
		return "large"
	}
	return "small"
}

// The large class has two members, one per use. Analysis and serving
// get 10000 synthetic events: 3.0 MB and 80k records, well past the 32k
// events at which the analyzer's kernels start to fan out. A window has to
// hold 100 runs of trace_run's large trace, and that one takes ~130 ms to
// simulate; 4000 events take under half as long.
const (
	analysisLarge = "synthetic10k"
	runLarge      = "synthetic4k"
)

// corpusSpecs lists the corpus: the large synthetic traces and six small
// traces of real workloads. The seed reaches the simulated programs only
// as the seed parameter of the workloads that take one.
func corpusSpecs(seed int64) []spec {
	s := strconv.FormatInt(seed, 10)
	specs := []spec{
		{Name: analysisLarge, Workload: "synthetic", Large: true, Params: map[string]string{"events": "10000", "gap": "100"}},
		{Name: runLarge, Workload: "synthetic", Large: true, Params: map[string]string{"events": "4000", "gap": "100"}},
		{Name: "matmul", Params: map[string]string{"n": "256", "t": "32", "buffers": "2", "seed": s}},
		{Name: "pipeline", Params: map[string]string{"blocks": "64", "blockbytes": "4096", "seed": s}, Cycles: 64},
		{Name: "julia", Params: map[string]string{"w": "256", "h": "128", "maxiter": "64", "mode": "dynamic"}},
		{Name: "histogram", Params: map[string]string{"size": "1048576", "seed": s}},
		{Name: "stencil", Params: map[string]string{"w": "256", "h": "128", "iters": "8", "seed": s}},
		{Name: "taskfarm", Params: map[string]string{"tasks": "256", "blockbytes": "4096", "seed": s}},
	}
	for i := range specs {
		if specs[i].Workload == "" {
			specs[i].Workload = specs[i].Name
		}
	}
	return specs
}

// simResult is what one simulated run produced.
type simResult struct {
	bytes  []byte // serialized trace; nil when untraced
	stats  core.Stats
	cycles uint64 // simulated end time
	eib    uint64 // bytes moved over the element interconnect bus
}

// simulate is one pdt-run equivalent, with a span around each public
// call. With traced false no session is attached and no trace written:
// the baseline the tracer's simulated overhead is measured against.
func simulate(s spec, traced bool, r *recorder) (simResult, error) {
	var out simResult
	w, err := workloads.New(s.Workload)
	if err != nil {
		return out, err
	}
	if err := w.Configure(s.Params); err != nil {
		return out, err
	}
	sp := r.begin("cell.NewMachine")
	m := cell.NewMachine(cell.DefaultConfig())
	r.end(sp)

	var session *core.Session
	if traced {
		sp = r.begin("core.Attach")
		cfg := core.DefaultTraceConfig()
		cfg.Workload = s.Workload
		cfg.Params = w.Params()
		session = core.NewSession(m, cfg)
		session.Attach()
		r.end(sp)
	}

	sp = r.begin("workloads.Prepare")
	err = w.Prepare(m)
	r.end(sp)
	if err != nil {
		return out, fmt.Errorf("prepare %s: %w", s.Name, err)
	}

	runSpan := "cell.Run"
	if !traced {
		runSpan = "cell.Run.untraced"
	}
	sp = r.begin(runSpan)
	err = m.Run()
	r.end(sp)
	if err != nil {
		return out, fmt.Errorf("run %s: %w", s.Name, err)
	}

	sp = r.begin("workloads.Verify")
	err = w.Verify(m)
	r.end(sp)
	if err != nil {
		return out, fmt.Errorf("verify %s: %w", s.Name, err)
	}

	out.cycles = m.Now()
	out.eib, _, _ = m.EIBStats()
	if traced {
		sp = r.begin("core.WriteTrace")
		var buf bytes.Buffer
		err = session.WriteTrace(&buf)
		r.end(sp)
		if err != nil {
			return out, fmt.Errorf("write trace %s: %w", s.Name, err)
		}
		out.bytes = buf.Bytes()
		out.stats = session.Stats()
	}
	return out, nil
}

// trace is one generated corpus member plus what the oracle expects of
// every op on it. The exported fields are the manifest the loop child
// reads; digests are computed during set-up by this same build, never
// pinned in the source.
type trace struct {
	spec
	SHA       string `json:"sha"` // hex SHA-256 of the trace bytes
	Bytes     int    `json:"bytes"`
	Records   uint64 `json:"records"` // SPE + PPE records the tracer wrote
	Flushes   uint64 `json:"flushes"`
	Dropped   uint64 `json:"dropped"`
	SimCycles uint64 `json:"simCycles"`
	EIBBytes  uint64 `json:"eibBytes"`
	// Want maps an output name ("batch/<kind>", "serve/<kind>",
	// "stream/report") to the hex SHA-256 of the reference output.
	Want map[string]string `json:"want"`
	// OutBytes is the length of each reference output.
	OutBytes map[string]int `json:"outBytes"`
	// UntracedCycles is the simulated end time of the same run with no
	// tracer attached (traced pass only).
	UntracedCycles uint64 `json:"untracedCycles,omitempty"`

	data []byte
	file *traceio.File // parsed form, the source of fresh bodies
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// generateCorpus simulates every spec once.
func generateCorpus(specs []spec) ([]*trace, error) {
	corpus := make([]*trace, 0, len(specs))
	for _, s := range specs {
		res, err := simulate(s, true, nil)
		if err != nil {
			return nil, err
		}
		corpus = append(corpus, &trace{
			spec: s, SHA: digest(res.bytes), Bytes: len(res.bytes), data: res.bytes,
			Records: res.stats.SPERecords + res.stats.PPERecords,
			Flushes: res.stats.Flushes, Dropped: res.stats.Dropped,
			SimCycles: res.cycles, EIBBytes: res.eib,
			Want: map[string]string{}, OutBytes: map[string]int{},
		})
	}
	return corpus, nil
}

const manifestName = "manifest.json"

// writeCorpus stores the traces and the manifest for the loop child.
func writeCorpus(dir string, corpus []*trace) error {
	for _, t := range corpus {
		if err := os.WriteFile(filepath.Join(dir, t.Name+".pdt"), t.data, 0o644); err != nil {
			return err
		}
	}
	b, err := json.Marshal(corpus)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, manifestName), b, 0o644)
}

// readCorpus is writeCorpus's inverse.
func readCorpus(dir string) ([]*trace, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var corpus []*trace
	if err := json.Unmarshal(b, &corpus); err != nil {
		return nil, fmt.Errorf("%s: %w", manifestName, err)
	}
	for _, t := range corpus {
		if t.data, err = os.ReadFile(filepath.Join(dir, t.Name+".pdt")); err != nil {
			return nil, err
		}
	}
	return corpus, nil
}

// nonceParam names the metadata parameter that makes a body fresh.
const nonceParam = "bench.nonce"

// freshBody re-serialises a parsed trace with one extra metadata
// parameter: the same events at the same cost to analyse, under a new
// SHA-256 content key.
func freshBody(f *traceio.File, nonce uint64) ([]byte, error) {
	var buf bytes.Buffer
	n := 0
	for _, c := range f.Chunks {
		n += len(c.Data) + 12
	}
	buf.Grow(n + 4096)
	w, err := traceio.NewWriter(&buf, f.Header)
	if err != nil {
		return nil, err
	}
	meta := f.Meta
	meta.Params = append(append([]traceio.Param(nil), meta.Params...),
		traceio.Param{Name: nonceParam, Value: strconv.FormatUint(nonce, 10)})
	if err := w.WriteMeta(&meta); err != nil {
		return nil, err
	}
	for _, c := range f.Chunks {
		if err := w.WriteChunk(c); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// item is one scheduled op: a corpus trace and an analysis kind (kind is
// unused by trace_run, whose ops differ only by trace).
type item struct{ Trace, Kind int }

// schedule builds the op cycle a workload's closed loop repeats: every
// (small trace, kind) pair once, and (the workload's large trace, kind)
// pairs repeated until the classes stand in the ratio 1 large :
// smallPerLarge small, shuffled by the seed.
func schedule(corpus []*trace, w workload, seed int64) []item {
	var small, large []item
	for ti, t := range corpus {
		for k := 0; k < w.numKinds(); k++ {
			switch {
			case !t.Large:
				small = append(small, item{ti, k})
			case t.Name == w.large:
				large = append(large, item{ti, k})
			}
		}
	}
	items := small
	for i := 0; i < len(small)/w.smallPerLarge; i++ {
		items = append(items, large[i%len(large)])
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(items), func(i, j int) {
		items[i], items[j] = items[j], items[i]
	})
	return items
}
